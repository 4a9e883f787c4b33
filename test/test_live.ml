(* Interprocedural liveness for checkpoint-set minimization: boundary
   live regions on the example workloads, minimized-shape pruning, the
   restore-equivalence oracle (including the seeded-unsoundness
   demonstration, which only the dynamic oracle may catch), and
   termination of the dirty-region fixpoint at widen_delay 0. *)

module As = Staticcheck.Auto_spec
module Rg = Staticcheck.Regions
module Pd = Staticcheck.Phase_discover
open Ickpt_analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Same probing as test_infer: runtest executes in the test directory,
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

let infer_example file =
  As.infer (Minic.Check.check (example_program file))

let find_phase t name =
  match
    List.find_opt (fun ph -> ph.As.ph.Pd.p_name = name) t.As.a_phases
  with
  | Some ph -> ph
  | None ->
      Alcotest.failf "phase %s not found among %s" name
        (String.concat ", "
           (List.map (fun ph -> ph.As.ph.Pd.p_name) t.As.a_phases))

let live_of ph g =
  match List.assoc_opt g ph.As.ph_live with
  | Some r -> r
  | None -> Alcotest.failf "no live region for %s" g

let min_of ph g =
  match List.assoc_opt g ph.As.ph_min_regions with
  | Some r -> r
  | None -> Alcotest.failf "no minimized region for %s" g

let check_region what expected actual =
  check_bool
    (Printf.sprintf "%s: expected %s, got %s" what
       (Format.asprintf "%a" Rg.pp expected)
       (Format.asprintf "%a" Rg.pp actual))
    true (Rg.equal expected actual)

(* ---- boundary live regions -------------------------------------------------

   blur: after setup only the border rows of temp (never overwritten by
   the stencil, which covers rows 1..6 of an 8x8 image) and the odd
   kernel taps are read again; the interior of temp is recomputed before
   every read. At the round boundary the whole image is live (next
   round's stencil reads it) while temp is wholly dead — the canonical
   "scratch buffer drops out of the checkpoint" result. *)

let blur_boundaries () =
  let t = infer_example "blur.mc" in
  let setup = find_phase t "setup:set_kernel" in
  check_region "setup temp live"
    (Rg.join (Rg.interval 0 7) (Rg.interval 56 63))
    (live_of setup "temp");
  check_region "setup kernel live"
    (Rg.of_list [ 1; 3; 4; 5; 7 ])
    (live_of setup "kernel");
  check_region "setup kernel minimized"
    (Rg.of_list [ 1; 3; 4; 5; 7 ])
    (min_of setup "kernel");
  let round = find_phase t "loop:smooth+commit" in
  check_region "round image minimized" (Rg.interval 0 63)
    (min_of round "image");
  check_region "round temp minimized (scratch is dead)" Rg.bot
    (min_of round "temp")

(* histogram: main returns a constant, so nothing the loop writes is
   ever read after any boundary — the minimized checkpoint is empty. *)
let histogram_boundaries () =
  let t = infer_example "histogram.mc" in
  List.iter
    (fun ph ->
      List.iter
        (fun (g, r) ->
          check_region (Printf.sprintf "histogram %s live" g) Rg.bot r)
        ph.As.ph_live)
    t.As.a_phases

(* pagerank: the scratch rank buffer [next] is fully recomputed by
   scatter before commit reads it, so it is dead at the round boundary;
   the committed [rank] array is what the next round consumes. *)
let pagerank_boundaries () =
  let t = infer_example "pagerank.mc" in
  let round = find_phase t "loop:scatter+commit_ranks" in
  check_region "round next live (recomputed scratch)" Rg.bot
    (live_of round "next");
  check_region "round rank minimized" (Rg.interval 0 15)
    (min_of round "rank")

(* kvlog: the hash table head is consulted every round, but the
   append-only log arrays are never read back — write-only state drops
   out of the minimized checkpoint entirely. *)
let kvlog_boundaries () =
  let t = infer_example "kvlog.mc" in
  let round = find_phase t "loop:do_round" in
  check_region "round table live" (Rg.point 0) (live_of round "table");
  check_region "round log_keys live (append-only)" Rg.bot
    (live_of round "log_keys");
  check_region "round log_vals live (append-only)" Rg.bot
    (live_of round "log_vals")

(* ---- minimized shapes ------------------------------------------------------ *)

let rec tracked_nodes (s : Jspec.Sclass.shape) =
  let self =
    match s.Jspec.Sclass.status with
    | Jspec.Sclass.Tracked -> 1
    | Jspec.Sclass.Clean -> 0
  in
  Array.fold_left
    (fun acc c ->
      match c with
      | Jspec.Sclass.Exact s | Jspec.Sclass.Nullable s -> acc + tracked_nodes s
      | Jspec.Sclass.Null_child | Jspec.Sclass.Unknown
      | Jspec.Sclass.Clean_opaque ->
          acc)
    self s.Jspec.Sclass.children

let tracked_total shapes_of t =
  List.fold_left
    (fun acc ph ->
      List.fold_left (fun acc (_, s) -> acc + tracked_nodes s) acc
        (shapes_of ph))
    0 t.As.a_phases

(* Minimization only ever demotes Tracked to Clean — never the reverse —
   and on blur it provably demotes something (the dead scratch buffer). *)
let minimized_shapes_prune () =
  List.iter
    (fun file ->
      let t = infer_example file in
      let total = tracked_total (fun ph -> ph.As.ph_shapes) t in
      let kept = tracked_total (fun ph -> ph.As.ph_min_shapes) t in
      check_bool
        (Printf.sprintf "%s: kept %d <= total %d" file kept total)
        true (kept <= total);
      if file = "blur.mc" then
        check_bool "blur drops at least one tracked block" true (kept < total))
    [ "blur.mc"; "histogram.mc"; "pagerank.mc"; "kvlog.mc" ]

(* A program whose accumulator is returned keeps everything live:
   minimization must be the identity (honest zeros). *)
let all_live_src =
  "int s;\n\
   int main() {\n\
  \  int i;\n\
  \  s = 0;\n\
  \  i = 0;\n\
  \  while (i < 8) { s = s + i; i = i + 1; }\n\
  \  return s;\n\
   }\n"

let all_live_identity () =
  let t = As.infer (Minic.Check.check (Minic.Parser.parse all_live_src)) in
  check_int "no tracked node demoted"
    (tracked_total (fun ph -> ph.As.ph_shapes) t)
    (tracked_total (fun ph -> ph.As.ph_min_shapes) t)

(* ---- restore-equivalence oracle -------------------------------------------- *)

(* Exact tallies per workload — (epochs, live cells, resumes, reads),
   then (baseline, minimized) incremental bytes: the oracle is
   deterministic, so a drift in any count is a behaviour change. *)
let live_tallies =
  [ ("blur.mc", ((7, 528, 7, 354), (573, 330)));
    ("histogram.mc", ((1, 0, 1, 0), (151, 0)));
    ("pagerank.mc", ((13, 1572, 13, 1292), (570, 363)));
    ("kvlog.mc", ((15, 84, 15, 65), (1552, 225))) ]

let live_oracle ?(seed_unsound = false) ~name program =
  Elide_oracle.run ~name (Elide_oracle.Liveness { seed_unsound }) program

let oracle_examples () =
  List.iter
    (fun (file, ((epochs, cells, resumes, reads), (base, min))) ->
      let o = live_oracle ~name:file (example_program file) in
      check_bool
        (Format.asprintf "%s restore-equivalent:@ %a" file Elide_oracle.pp o)
        true (Elide_oracle.ok o);
      let t = o.Elide_oracle.tallies in
      check_int (file ^ " engine runs") 2 (List.length o.Elide_oracle.reports);
      check_int (file ^ " epochs") epochs t.Elide_oracle.epochs;
      check_int (file ^ " live cells") cells t.Elide_oracle.live_cells;
      check_int (file ^ " resumes") resumes t.Elide_oracle.resumes;
      check_int (file ^ " reads") reads t.Elide_oracle.reads_checked;
      check_int (file ^ " baseline bytes") base t.Elide_oracle.baseline_bytes;
      check_int (file ^ " minimized bytes") min
        t.Elide_oracle.minimized_bytes)
    live_tallies

(* The seeded mis-minimization must stay invisible to the static layer
   (no Error finding) and be caught by the dynamic oracle — proving the
   oracle, not the static analysis, gates this transformation. *)
let seeded_dead_caught_dynamically () =
  List.iter
    (fun (file, failures) ->
      let t =
        As.infer ~seed_dead:true
          (Minic.Check.check (example_program file))
      in
      check_bool
        (Printf.sprintf "%s: seed_dead raises no static error" file)
        false
        (Staticcheck.Finding.has_errors (As.findings t));
      let o =
        live_oracle ~seed_unsound:true ~name:file (example_program file)
      in
      check_bool (Printf.sprintf "%s: oracle flags the seeded run" file) false
        (Elide_oracle.ok o);
      Option.iter
        (fun n ->
          check_int (file ^ " seeded failures") n
            (List.length o.Elide_oracle.failures))
        failures)
    [ ("blur.mc", Some 60); ("pagerank.mc", Some 122); ("kvlog.mc", None) ];
  let o =
    live_oracle ~seed_unsound:true ~name:"blur.mc" (example_program "blur.mc")
  in
  let count check =
    List.length
      (List.filter
         (fun f -> f.Elide_oracle.check = check)
         o.Elide_oracle.failures)
  in
  check_int "blur seeded restore failures" 30 (count Elide_oracle.Restore);
  check_int "blur seeded resume-state failures" 30
    (count Elide_oracle.Resume_state);
  (* Every failure is printed, each on its own line, under its kind. *)
  let lines =
    String.split_on_char '\n' (Format.asprintf "%a" Elide_oracle.pp o)
  in
  List.iter
    (fun (f : Elide_oracle.failure) ->
      let line =
        Printf.sprintf "  [%s] %s: %s" f.Elide_oracle.at
          (Elide_oracle.check_name f.Elide_oracle.check)
          f.Elide_oracle.detail
      in
      check_bool ("printed: " ^ line) true (List.mem line lines))
    o.Elide_oracle.failures;
  check_int "one pp line per failure"
    (List.length o.Elide_oracle.failures)
    (List.length
       (List.filter
          (fun l -> String.length l > 3 && String.sub l 0 3 = "  [")
          lines))

let print_seeded_program seed =
  Printf.sprintf "seed %d:\n%s" seed
    (Minic.Pp.to_string (Minic.Gen.random_program ~seed ()))

let prop_random_live =
  QCheck2.Test.make ~name:"restore-equivalence holds on random programs"
    ~count:20 ~print:print_seeded_program
    QCheck2.Gen.(int_range 0 5000)
    (fun seed ->
      let program = Minic.Gen.random_program ~seed () in
      let name = Printf.sprintf "random-%d" seed in
      Elide_oracle.ok (live_oracle ~name program))

(* ---- dirty-region fixpoint termination at widen_delay 0 -------------------- *)

let prop_widen_delay_zero =
  QCheck2.Test.make
    ~name:"dirty-region fixpoint terminates with immediate widening"
    ~count:30 ~print:print_seeded_program
    QCheck2.Gen.(int_range 0 5000)
    (fun seed ->
      let env = Minic.Check.check (Minic.Gen.random_program ~seed ()) in
      let r = Staticcheck.Dirty_ai.analyze ~widen_delay:0 env in
      Staticcheck.Dirty_ai.rounds r < 200)

let suites =
  [ ( "live-boundary",
      [ Alcotest.test_case "blur" `Quick blur_boundaries;
        Alcotest.test_case "histogram" `Quick histogram_boundaries;
        Alcotest.test_case "pagerank" `Quick pagerank_boundaries;
        Alcotest.test_case "kvlog" `Quick kvlog_boundaries ] );
    ( "live-minimize",
      [ Alcotest.test_case "shapes only demote" `Quick minimized_shapes_prune;
        Alcotest.test_case "all-live identity" `Quick all_live_identity ] );
    ( "live-oracle",
      [ Alcotest.test_case "example workloads" `Slow oracle_examples;
        Alcotest.test_case "seeded dead caught dynamically" `Slow
          seeded_dead_caught_dynamically;
        QCheck_alcotest.to_alcotest prop_random_live ] );
    ( "dirty-widen",
      [ QCheck_alcotest.to_alcotest prop_widen_delay_zero ] ) ]
