(* The shared bench document of the extension ablations: its JSON (string
   escaping, fixed decimals, the checks array with the N/A outcome), its
   verdict (N/A is neither a pass nor a failure), and the two checks whose
   preconditions depend on the host or the run's scale. *)

open Ickpt_experiments

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let status_name (c : Workload.check) =
  match c.Workload.status with
  | Workload.Pass -> "pass"
  | Workload.Fail -> "fail"
  | Workload.Not_applicable _ -> "n/a"

let statuses checks = String.concat " " (List.map status_name checks)

(* ---- the document -------------------------------------------------------- *)

type toy = {
  name : string;
  secs : float;
  bytes : int;
  ratio : float;
  ok : bool;
}

let toy_doc () =
  let columns =
    Bench_doc.
      [ column ~head:"workload" "workload" (fun r -> String r.name);
        column "seconds" (fun r -> Seconds (6, r.secs));
        column ~head:"bytes" "bytes" (fun r -> Bytes r.bytes);
        column ~head:"ratio" "ratio" (fun r -> Ratio r.ratio);
        column "pct" (fun r -> Float (2, 100.0 *. r.secs));
        column ~head:"ok" "ok" (fun r -> Bool r.ok) ]
  in
  let rows =
    [ { name = "hist\"o \xc3\xa9"; secs = 0.00125; bytes = 4096; ratio = 1.5;
        ok = true };
      { name = "tab\there"; secs = 1.0 /. 3.0; bytes = 0; ratio = nan;
        ok = false };
      { name = "latin1 \xe9"; secs = 2.0; bytes = 1; ratio = 0.25;
        ok = true } ]
  in
  let checks =
    Workload.
      [ check ~label:"toy: passes" ~ok:true ~detail:"always";
        check ~label:"toy: speedup" ~ok:false ~detail:"needs cores"
        |> requires false ~reason:"needs host_cores >= 4; this host has 2" ]
  in
  Bench_doc.make ~bench:"toy bench" ~title:"Toy" ~unit:"seconds"
    ~host_cores:2 columns rows checks

let expected_json =
  {|{
  "bench": "toy bench",
  "unit": "seconds",
  "host_cores": 2,
  "rows": [
    {"workload": "hist\"o é", "seconds": 0.001250, "bytes": 4096, "ratio": 1.500, "pct": 0.12, "ok": true},
    {"workload": "tab\u0009here", "seconds": 0.333333, "bytes": 0, "ratio": null, "pct": 33.33, "ok": false},
    {"workload": "latin1 �", "seconds": 2.000000, "bytes": 1, "ratio": 0.250, "pct": 200.00, "ok": true}
  ],
  "checks": [
    {"label": "toy: passes", "status": "pass", "detail": "always"},
    {"label": "toy: speedup", "status": "n/a", "detail": "needs cores", "reason": "needs host_cores >= 4; this host has 2"}
  ]
}
|}

let to_json_pinned () =
  check_string "document" expected_json (Bench_doc.to_json (toy_doc ()))

let emit_verdict () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  check_bool "an N/A check does not fail the document" true
    (Bench_doc.emit ppf (toy_doc ()) = []);
  Format.pp_print_flush ppf ();
  let out = Buffer.contents buf in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length out && (String.sub out i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool "N/A printed with its reason" true
    (has "[N/A] toy: speedup — needs host_cores >= 4; this host has 2");
  check_bool "JSON-only column left out of the table" false (has "pct");
  let failing =
    Bench_doc.make ~bench:"b" ~title:"t" ~unit:"u" ~host_cores:1 [] []
      [ Workload.check ~label:"x" ~ok:false ~detail:"d" ]
  in
  check_bool "a FAIL fails the document" false
    (Bench_doc.emit (Format.formatter_of_buffer (Buffer.create 16)) failing
    = [])

(* ---- host and scale preconditions -------------------------------------- *)

let dedup_row ~workload ~epochs ~speedup =
  { Ablation_dedup.workload;
    epochs;
    chunks = 10;
    logical_bytes = 2000;
    physical_bytes = 1000;
    dedup_ratio = 2.0;
    target_epoch = epochs / 2;
    replay_seconds = speedup *. 0.001;
    store_seconds = 0.001;
    speedup;
    states_equal = true }

let dedup_rows ~epochs ~speedup =
  [ dedup_row ~workload:"image" ~epochs:12 ~speedup:1.0;
    dedup_row ~workload:"pagerank" ~epochs ~speedup ]

let dedup_precondition () =
  check_string "12 epochs: the 100-epoch check is N/A, not FAIL"
    "pass pass n/a"
    (statuses (Ablation_dedup.checks (dedup_rows ~epochs:12 ~speedup:0.7)));
  check_string "120 epochs, store faster" "pass pass pass"
    (statuses (Ablation_dedup.checks (dedup_rows ~epochs:120 ~speedup:2.0)));
  check_string "120 epochs, store slower" "pass pass fail"
    (statuses (Ablation_dedup.checks (dedup_rows ~epochs:120 ~speedup:0.7)))

let par_rows ~speedup4 =
  List.map
    (fun (domains, speedup) ->
      { Ablation_par.workload = "stencil-2k";
        domains;
        par_sweeps = 2;
        refused = 0;
        groups = 0;
        par_units = 8 * domains;
        seq_seconds = 0.05;
        par_seconds = 0.05 /. speedup;
        speedup;
        identical = true;
        oracle_ok = true })
    [ (1, 1.0); (2, 1.2); (4, speedup4) ]

let par_precondition () =
  let statuses ~host_cores ~speedup4 =
    statuses (Ablation_par.checks ~host_cores (par_rows ~speedup4))
  in
  check_string "2 cores: the speedup check is N/A" "pass pass pass pass n/a"
    (statuses ~host_cores:2 ~speedup4:2.0);
  check_string "2 cores: N/A even when the rows would fail it"
    "pass pass pass pass n/a"
    (statuses ~host_cores:2 ~speedup4:0.5);
  check_string "4 cores: it applies and passes" "pass pass pass pass pass"
    (statuses ~host_cores:4 ~speedup4:2.0);
  check_string "4 cores: it applies and fails" "pass pass pass pass fail"
    (statuses ~host_cores:4 ~speedup4:0.5)

let suites =
  [ ( "bench-doc",
      [ Alcotest.test_case "to_json pinned" `Quick to_json_pinned;
        Alcotest.test_case "emit verdict" `Quick emit_verdict;
        Alcotest.test_case "dedup 100-epoch precondition" `Quick
          dedup_precondition;
        Alcotest.test_case "par host-core precondition" `Quick
          par_precondition ] ) ]
