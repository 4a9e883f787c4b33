(* Fully automatic checkpoint inference: phase discovery, shape
   inference, the Auto_spec pipeline (verified-or-refusal), the engine's
   annotation-free mode, the inferred-run differential oracle over every
   example workload and over random programs, and the uniform JSON
   envelope shared by the four CLI subcommands. *)

open Ickpt_analysis
module Pd = Staticcheck.Phase_discover
module Si = Staticcheck.Shape_infer
module As = Staticcheck.Auto_spec
module Be = Staticcheck.Barrier_elide
module Fi = Staticcheck.Finding

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Same probing as test_elide: runtest executes in the test directory,
   dune exec at the workspace root. *)
let example_path file =
  let candidates =
    [ Filename.concat "../examples/workloads" file;
      Filename.concat "_build/default/examples/workloads" file;
      Filename.concat "examples/workloads" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "example workload %s not found" file

let example_program file =
  let ic = open_in_bin (example_path file) in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Minic.Parser.parse src

let example_env file = Minic.Check.check (example_program file)

(* ---- phase discovery ------------------------------------------------------- *)

let discover_blur () =
  let phases = Pd.discover (example_env "blur.mc") in
  check_int "blur phase count" 3 (List.length phases);
  let p0 = List.nth phases 0 and p1 = List.nth phases 1
  and p2 = List.nth phases 2 in
  check_string "phase 0 name" "setup:set_kernel" p0.Pd.p_name;
  check_string "phase 1 name" "loop:smooth+commit" p1.Pd.p_name;
  check_bool "phase 0 is setup" false (Pd.is_round p0);
  check_bool "phase 1 is round" true (Pd.is_round p1);
  check_bool "phase 2 is setup" false (Pd.is_round p2);
  Alcotest.(check (list string))
    "phase 1 calls" [ "smooth"; "commit" ] p1.Pd.p_calls;
  (* the one-round program lifts main's locals to globals *)
  check_bool "round lifted a local" true (p1.Pd.p_lifted <> [])

let discover_histogram () =
  let phases = Pd.discover (example_env "histogram.mc") in
  check_int "histogram phase count" 1 (List.length phases);
  let p = List.hd phases in
  check_bool "single setup phase" false (Pd.is_round p);
  Alcotest.(check (list string))
    "calls in first-use order"
    [ "fill"; "clear_histogram"; "accumulate" ]
    p.Pd.p_calls

(* ---- shape inference on blur ---------------------------------------------- *)

let find_phase auto name =
  match
    List.find_opt
      (fun pr -> pr.As.ph.Pd.p_name = name)
      auto.As.a_phases
  with
  | Some pr -> pr
  | None -> Alcotest.failf "phase %s not inferred" name

let blur_inference () =
  let auto = As.infer (example_env "blur.mc") in
  check_bool "pipeline ok" true (As.ok auto);
  (* 3 phases x 7 globals, every synthesized checkpointer verified *)
  check_int "verified specializations" 21 (As.verified_count auto);
  let setup = find_phase auto "setup:set_kernel" in
  let loop = find_phase auto "loop:smooth+commit" in
  (* setup writes only the kernel; the loop never touches it *)
  check_bool "setup kernel region nonempty" false
    (Staticcheck.Regions.is_bot (List.assoc "kernel" setup.As.ph_regions));
  check_bool "loop kernel region empty" true
    (Staticcheck.Regions.is_bot (List.assoc "kernel" loop.As.ph_regions));
  (* the loop dirties all 8 image blocks but only temp's interior 6 *)
  let enc = auto.As.a_encoding in
  check_int "image tracked blocks" 8
    (List.length
       (Si.tracked_blocks enc "image" (List.assoc "image" loop.As.ph_regions)));
  check_int "temp tracked blocks" 6
    (List.length
       (Si.tracked_blocks enc "temp" (List.assoc "temp" loop.As.ph_regions)));
  (* elision: setup keeps only the kernel barrier, elides the rest *)
  let elided = Be.welided setup.As.ph_wplan in
  check_bool "setup elides image" true (List.mem "image" elided);
  check_bool "setup keeps kernel" false (List.mem "kernel" elided);
  (* every verdict in every phase is Verified *)
  List.iter
    (fun pr ->
      List.iter
        (fun (g, v) ->
          check_bool
            (Printf.sprintf "%s/%s verified" pr.As.ph.Pd.p_name g)
            true
            (match v with Staticcheck.Tv.Verified _ -> true | _ -> false))
        pr.As.ph_verdicts)
    auto.As.a_phases

(* The gate gates: a shape mutated between synthesis and validation must
   be refuted, surface as an Error finding, and fail the run. *)
let seeded_unsound_refused () =
  let env = Minic.Check.check (Minic.Gen.image_program ()) in
  let auto = As.infer ~seed_unsound:true env in
  check_bool "seeded run not ok" false (As.ok auto);
  check_bool "error findings present" true
    (Fi.has_errors (As.findings auto));
  check_bool "error scoped to infer-tv" true
    (List.exists
       (fun (f : Fi.t) ->
         f.Fi.severity = Fi.Error
         && String.length f.Fi.scope >= 8
         && String.sub f.Fi.scope 0 8 = "infer-tv")
       (As.findings auto))

(* ---- the engine's annotation-free mode ------------------------------------ *)

(* The inferred run drives the real program through the instrumented
   Wheap; its final scalar state must match the reference interpreter on
   the plain hashtable store. *)
let engine_infer_state () =
  let program = example_program "blur.mc" in
  let report = Engine.analyze (Engine.Inferred Engine.inferred) program in
  let wheap =
    match Engine.wheap report with
    | Some w -> w
    | None -> Alcotest.fail "inferred run has no wheap"
  in
  let reference = Minic.Interp.run program in
  List.iter
    (fun (name, v) ->
      check_int ("final " ^ name) v (List.assoc name (Wheap.scalar_globals wheap)))
    reference.Minic.Interp.globals;
  check_int "discovered phases" 3 (List.length report.Engine.phases);
  (* 1 base full + setup 1 + round (4 iterations + final guard) + setup 1 *)
  check_int "chain segments" 8
    (Ickpt_core.Chain.length report.Engine.chain);
  check_bool "subject carries the inference" true
    (Engine.auto_spec report <> None);
  match Engine.attrs report with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "attrs must reject an inferred report"

(* ---- the differential oracle over the example workloads -------------------- *)

let oracle_outcome name o ~cells ~segments =
  check_bool
    (Format.asprintf "%s identical across elision and modes, I8 holds:@ %a"
       name Elide_oracle.pp o)
    true (Elide_oracle.ok o);
  let t = o.Elide_oracle.tallies in
  check_int (name ^ " engine runs") 4 (List.length o.Elide_oracle.reports);
  check_int (name ^ " observed dirty cells") cells t.Elide_oracle.dirty_cells;
  check_int (name ^ " segments decoded") segments t.Elide_oracle.segments

let oracle_examples_inferred () =
  List.iter
    (fun (file, (cells, segments)) ->
      oracle_outcome file ~cells ~segments
        (Elide_oracle.run ~name:file Elide_oracle.Inferred_elision
           (example_program file)))
    [ ("blur.mc", (58, 7));
      ("histogram.mc", (10, 1));
      ("pagerank.mc", (57, 13));
      ("kvlog.mc", (108, 15)) ]

(* ---- random programs: I8 + byte identity, zero declarations ---------------- *)

(* A failing random seed must be reproducible straight from the CI log:
   print the seed AND the generated program, not just the integer. *)
let print_seeded_program seed =
  Printf.sprintf "seed %d:\n%s" seed
    (Minic.Pp.to_string (Minic.Gen.random_program ~seed ()))

let prop_random_inferred =
  QCheck2.Test.make ~name:"inferred oracle sound on random programs"
    ~count:20 ~print:print_seeded_program
    QCheck2.Gen.(int_range 0 5000)
    (fun seed ->
      let program = Minic.Gen.random_program ~seed () in
      let name = Printf.sprintf "random-%d" seed in
      Elide_oracle.ok
        (Elide_oracle.run ~name Elide_oracle.Inferred_elision program))

(* ---- the uniform JSON envelope --------------------------------------------- *)

(* A small strict JSON reader — enough to prove each subcommand's output
   is one well-formed object with the shared top-level fields. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "json: %s at %d in %s" msg !pos s in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t')
    do advance () done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'u' ->
              advance ();
              pos := !pos + 4;
              Buffer.add_char b '?'
          | Some c -> Buffer.add_char b c; advance ()
          | None -> fail "dangling escape");
          go ()
      | Some c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); J_obj [])
        else
          let rec members acc =
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); skip_ws (); members ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          J_obj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); J_arr [])
        else
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elems (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          J_arr (elems [])
    | Some '"' -> J_str (parse_string ())
    | Some 't' -> pos := !pos + 4; J_bool true
    | Some 'f' -> pos := !pos + 5; J_bool false
    | Some 'n' -> pos := !pos + 4; J_null
    | Some _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do advance () done;
        if !pos = start then fail "unexpected character"
        else J_num (float_of_string (String.sub s start (!pos - start)))
    | None -> fail "unexpected end"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field obj k =
  match obj with
  | J_obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> Alcotest.failf "envelope missing field %s" k)
  | _ -> Alcotest.fail "envelope is not an object"

let check_envelope ?(tool = "ickpt_lint") ~subcommand ~exit_code raw =
  let j = parse_json raw in
  (match field j "tool" with
  | J_str t -> check_string "tool" tool t
  | _ -> Alcotest.fail "tool field");
  (match field j "schema_version" with
  | J_num v ->
      check_int "schema_version" Fi.schema_version (int_of_float v);
      (* Version 4: parameterized tool field + collision findings. A
         consumer pinned to the old layout must notice the bump. *)
      check_int "schema_version is 4" 4 (int_of_float v)
  | _ -> Alcotest.fail "schema_version must be a number");
  (match field j "subcommand" with
  | J_str s -> check_string "subcommand" subcommand s
  | _ -> Alcotest.fail "subcommand field");
  (match field j "findings" with
  | J_arr _ -> ()
  | _ -> Alcotest.fail "findings must be an array");
  (match (field j "errors", field j "warnings") with
  | J_num _, J_num _ -> ()
  | _ -> Alcotest.fail "error counts");
  match field j "exit_code" with
  | J_num c -> check_int "exit_code" exit_code (int_of_float c)
  | _ -> Alcotest.fail "exit_code field"

let sample_findings =
  [ { Fi.severity = Fi.Warning;
      scope = "elide:loop";
      path = "temp";
      reason = "partially clean" };
    { Fi.severity = Fi.Error;
      scope = "infer-tv:setup";
      path = "image\"quoted\\";
      reason = "refuted:\n  counterexample" } ]

let json_envelopes () =
  (* each subcommand's envelope, including the extras it splices in,
     parses as one object with the shared top-level schema *)
  check_envelope ~subcommand:"lint" ~exit_code:0
    (Fi.envelope ~subcommand:"lint" ~exit_code:0 []);
  check_envelope ~subcommand:"verify" ~exit_code:0
    (Fi.envelope ~subcommand:"verify"
       ~extra:
         [ ("verified", {|[{"shape":"sea","stage":"optimized","vars":3,"paths":8}]|}) ]
       ~exit_code:0 []);
  check_envelope ~subcommand:"elide" ~exit_code:1
    (Fi.envelope ~subcommand:"elide"
       ~extra:[ ("oracle_ok", "false") ]
       ~exit_code:1 sample_findings);
  let raw =
    Fi.envelope ~subcommand:"infer"
      ~extra:
        [ ("phases", "3"); ("verified_specializations", "21");
          ("oracle_ok", "true") ]
      ~exit_code:1 sample_findings
  in
  check_envelope ~subcommand:"infer" ~exit_code:1 raw;
  check_envelope ~subcommand:"live" ~exit_code:0
    (Fi.envelope ~subcommand:"live"
       ~extra:
         [ ("boundaries", {|[{"phase":"loop","live":{"image":"0..63"}}]|});
           ("oracle_ok", "true"); ("baseline_bytes", "573");
           ("minimized_bytes", "330") ]
       ~exit_code:0 []);
  check_envelope ~subcommand:"par" ~exit_code:0
    (Fi.envelope ~subcommand:"par"
       ~extra:
         [ ("domains", "4"); ("par_sweeps", "2"); ("refused_sweeps", "0");
           ("groups", "0"); ("seeded", "false"); ("oracle_ok", "true") ]
       ~exit_code:0 []);
  (* the serve CLI shares the envelope under its own tool name *)
  check_envelope ~tool:"ickpt_serve" ~subcommand:"run" ~exit_code:0
    (Fi.envelope ~tool:"ickpt_serve" ~subcommand:"run"
       ~extra:[ ("tenants", "8"); ("collisions", "0") ]
       ~exit_code:0 []);
  (* findings survive the escape round-trip *)
  let j = parse_json raw in
  match field j "findings" with
  | J_arr [ _; f ] -> (
      match field f "path" with
      | J_str p -> check_string "escaped path" "image\"quoted\\" p
      | _ -> Alcotest.fail "finding path")
  | _ -> Alcotest.fail "two findings expected"

(* The CLI end to end: a seeded oracle run's failures must all reach the
   envelope as error findings — the JSON consumer sees exactly what the
   outcome recorded. The binary is a dune dep of the test. *)
let lint_exe () =
  match
    List.find_opt Sys.file_exists
      [ "../bin/ickpt_lint.exe"; "_build/default/bin/ickpt_lint.exe" ]
  with
  | Some p -> p
  | None -> Alcotest.fail "ickpt_lint.exe not found"

let cli_json args =
  let out = Filename.temp_file "ickpt_lint" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s --json > %s" (Filename.quote (lint_exe ()))
             args (Filename.quote out))
      in
      let ic = open_in_bin out in
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (code, String.trim raw))

let oracle_failures_in_envelope () =
  List.iter
    (fun (subcommand, flag, family, failures) ->
      let o =
        Elide_oracle.run ~name:"blur.mc" family (example_program "blur.mc")
      in
      check_int (subcommand ^ " outcome failures") failures
        (List.length o.Elide_oracle.failures);
      let code, raw =
        cli_json
          (Printf.sprintf "%s %s %s" subcommand flag
             (Filename.quote (example_path "blur.mc")))
      in
      check_int (subcommand ^ " exit code") 1 code;
      check_envelope ~subcommand ~exit_code:1 raw;
      let j = parse_json raw in
      (match field j "errors" with
      | J_num n -> check_int (subcommand ^ " errors") failures (int_of_float n)
      | _ -> Alcotest.fail "errors field");
      match field j "oracle_ok" with
      | J_bool b -> check_bool (subcommand ^ " oracle_ok") false b
      | _ -> Alcotest.fail "oracle_ok field")
    [ ( "live",
        "--seed-unsound",
        Elide_oracle.Liveness { seed_unsound = true },
        60 );
      ( "par",
        "--seed-racy",
        Elide_oracle.Parallel { domains = 4; seed_racy = true },
        8 ) ]

let suites =
  [ ( "phase-discover",
      [ Alcotest.test_case "blur phases" `Quick discover_blur;
        Alcotest.test_case "histogram phases" `Quick discover_histogram ] );
    ( "auto-spec",
      [ Alcotest.test_case "blur inference" `Quick blur_inference;
        Alcotest.test_case "seeded unsound refused" `Quick
          seeded_unsound_refused ] );
    ( "engine-infer",
      [ Alcotest.test_case "state recovery" `Quick engine_infer_state ] );
    ( "infer-oracle",
      [ Alcotest.test_case "example workloads" `Slow oracle_examples_inferred;
        QCheck_alcotest.to_alcotest prop_random_inferred ] );
    ( "json-envelope",
      [ Alcotest.test_case "uniform across subcommands" `Quick json_envelopes;
        Alcotest.test_case "oracle failures reach the envelope" `Slow
          oracle_failures_in_envelope ] ) ]
