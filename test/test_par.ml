(* Interference analysis and domain-parallel execution: schedule shapes
   on the example workloads (strip ranges, refusals with the conflicting
   region pair, phase groups), deterministic replay (the parallel chain
   is byte-identical to the sequential one at any domain count), the
   sequential-identity oracle including the seeded racy overlap that
   only the dynamic footprint check may catch. *)

module As = Staticcheck.Auto_spec
module If = Staticcheck.Interfere
module Sc = Staticcheck.Interfere.Schedule
module Fi = Staticcheck.Finding
open Ickpt_analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let par_oracle ?(seed_racy = false) ~name program =
  Elide_oracle.run ~name (Elide_oracle.Parallel { domains = 4; seed_racy })
    program

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

let schedule_example ?(domains = 4) file =
  If.schedule ~domains
    (As.infer (Minic.Check.check (example_program file)))

let sweeps_of sc =
  List.concat_map
    (fun ps ->
      List.filter_map
        (function Sc.Par_sweep sw -> Some sw | Sc.Serial _ -> None)
        ps.Sc.ps_units)
    sc.Sc.sc_phases

let find_sweep sc func =
  match List.find_opt (fun sw -> sw.Sc.sw_func = func) (sweeps_of sc) with
  | Some sw -> sw
  | None ->
      Alcotest.failf "sweep %s not scheduled parallel among %s" func
        (String.concat ", "
           (List.map (fun sw -> sw.Sc.sw_func) (sweeps_of sc)))

let check_strips what expected sw =
  Alcotest.(check (list (pair int int)))
    what expected
    (List.map (fun st -> (st.Sc.st_lo, st.Sc.st_hi)) sw.Sc.sw_strips)

let has_reason sc reason =
  List.exists (fun (f : Fi.t) -> f.Fi.reason = reason) sc.Sc.sc_findings

(* ---- schedule shapes --------------------------------------------------------

   blur: both sweeps of the round phase partition cleanly — smooth's
   strips write disjoint slices of temp while sharing overlapping reads
   of image (common reads are allowed), commit's strips are disjoint on
   both sides. The trailing [return image[32]] phase reads what the loop
   writes, so no phase group forms. *)

let blur_schedule () =
  let sc = schedule_example "blur.mc" in
  check_int "parallel sweeps" 2 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 0 sc.Sc.sc_refused_sweeps;
  check_int "phase groups" 0 sc.Sc.sc_groups;
  check_bool "not seeded" false sc.Sc.sc_seeded;
  let smooth = find_sweep sc "smooth" in
  check_strips "smooth strips"
    [ (8, 20); (20, 32); (32, 44); (44, 56) ]
    smooth;
  check_strips "commit strips"
    [ (0, 16); (16, 32); (32, 48); (48, 64) ]
    (find_sweep sc "commit");
  (* the precondition the scheduler claims: every strip pair is
     footprint-disjoint *)
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            check_bool
              (Printf.sprintf "smooth strips %d/%d disjoint" i j)
              true
              (If.footprint_conflict a.Sc.st_foot b.Sc.st_foot = None))
        smooth.Sc.sw_strips)
    smooth.Sc.sw_strips

(* pagerank: commit_ranks partitions, but scatter's body (per-edge
   accumulation) is not the counted-sweep shape the range reasoning
   handles — it must be refused with a finding, not silently dropped. *)
let pagerank_schedule () =
  let sc = schedule_example "pagerank.mc" in
  check_int "parallel sweeps" 1 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 1 sc.Sc.sc_refused_sweeps;
  check_strips "commit_ranks strips"
    [ (0, 4); (4, 8); (8, 12); (12, 16) ]
    (find_sweep sc "commit_ranks");
  check_bool "scatter refusal names the shape" true
    (has_reason sc "body is not assign-then-single-while");
  check_bool "refusals are warnings" true
    (List.for_all
       (fun (f : Fi.t) -> f.Fi.severity = Fi.Warning)
       sc.Sc.sc_findings)

(* kvlog: the hash scatter may send any key to any slot, so every strip
   pair may collide on the whole table — refused with the conflicting
   region pair. The trailing [return table[0] + log_pos] phase reads the
   loop's writes (visible only because phase analysis keeps return-
   expression reads), so no phase group forms either. *)
let kvlog_schedule () =
  let sc = schedule_example "kvlog.mc" in
  check_int "parallel sweeps" 0 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 1 sc.Sc.sc_refused_sweeps;
  check_int "phase groups" 0 sc.Sc.sc_groups;
  check_bool "strip refusal names the region pair" true
    (has_reason sc "strips 0 and 1 may conflict on table: 0..63 vs 0..63");
  check_bool "return-read interference is seen" true
    (has_reason sc "phases may interfere on table: 0..63 vs 0");
  (* a single strip is trivially disjoint: at 1 domain the same sweep is
     recognized, not refused *)
  let sc1 = schedule_example ~domains:1 "kvlog.mc" in
  check_int "1-domain parallel sweeps" 1 sc1.Sc.sc_par_sweeps;
  check_int "1-domain refused sweeps" 0 sc1.Sc.sc_refused_sweeps

(* histogram: one setup phase, no round loop — nothing to parallelize,
   and nothing to refuse. *)
let histogram_schedule () =
  let sc = schedule_example "histogram.mc" in
  check_int "parallel sweeps" 0 sc.Sc.sc_par_sweeps;
  check_int "refused sweeps" 0 sc.Sc.sc_refused_sweeps;
  check_int "phase groups" 0 sc.Sc.sc_groups;
  check_int "no findings" 0 (List.length sc.Sc.sc_findings)

(* ---- sweep refusals ---------------------------------------------------------

   One tiny round-phase program per refusal reason: [main]'s loop calls
   [f()], whose shape or body the scheduler must refuse with exactly this
   finding text (and keep serial). [k] is bumped every round, so it is no
   constant; [g] is the only global array. *)

let refusal_src f =
  "int g[8];\n\
   int k = 0;\n" ^ f
  ^ "\n\
     int main() {\n\
    \  int round;\n\
    \  round = 0;\n\
    \  while (round < 2) {\n\
    \    f();\n\
    \    k = k + 1;\n\
    \    round = round + 1;\n\
    \  }\n\
    \  return 0;\n\
     }\n"

let sweep_src ?(locals = "") ?(lo = "0") ?(hi = "8") body =
  Printf.sprintf
    "void f() {\n\
    \  int i;\n\
    \  %s\n\
    \  i = %s;\n\
    \  while (i < %s) {\n\
    \    %s\n\
    \    i = i + 1;\n\
    \  }\n\
     }"
    locals lo hi body

let refusal_cases =
  [ ("int f() { return 0; }", "not a nullary void sweep");
    ( "void f() { int i; i = 0; while (i < 8) { i = i + 2; } }",
      "loop does not end in x = x + 1" );
    (sweep_src "g[i] = 1; i = i + 0;", "induction variable reassigned in body");
    (sweep_src ~lo:"k" "g[i] = 1;", "lower bound not statically constant");
    (sweep_src ~hi:"k" "g[i] = 1;", "upper bound not statically constant");
    (sweep_src ~lo:"4" ~hi:"2" "g[i] = 1;", "sweep executes no iterations");
    ( sweep_src ~locals:"int t;" "g[i] = t; t = i;",
      "local t may carry a value across iterations" );
    ( sweep_src ~locals:"int t;" "if (i > 2) { t = 1; } else { } g[i] = t;",
      "local t may carry a value across iterations" );
    (sweep_src ~locals:"int a[8];" "a[i] = 1;", "local array a in body");
    ( sweep_src ~locals:"int t;"
        "t = 0; while (t < 2) { t = t + 1; } g[i] = t;",
      "nested loop in body" );
    (sweep_src "if (i > 6) { return; } else { } g[i] = 1;", "return in body") ]

let sweep_refusals () =
  List.iter
    (fun (f, reason) ->
      let program = Minic.Parser.parse (refusal_src f) in
      let sc = If.schedule ~domains:4 (As.infer (Minic.Check.check program)) in
      check_int (reason ^ ": parallel sweeps") 0 sc.Sc.sc_par_sweeps;
      check_int (reason ^ ": refused sweeps") 1 sc.Sc.sc_refused_sweeps;
      let sweep_findings =
        List.filter (fun (f : Fi.t) -> f.Fi.path = "f") sc.Sc.sc_findings
      in
      Alcotest.(check (list string))
        (reason ^ ": finding") [ reason ]
        (List.map (fun (f : Fi.t) -> f.Fi.reason) sweep_findings))
    refusal_cases

(* ---- deterministic merge ----------------------------------------------------

   Replaying domain-local write logs in schedule order must reproduce
   the sequential barrier stream exactly: same program, any domain
   count, byte-identical chains. *)

let segment_keys report =
  List.map
    (fun (s : Ickpt_core.Segment.t) ->
      ( s.Ickpt_core.Segment.kind,
        s.Ickpt_core.Segment.seq,
        s.Ickpt_core.Segment.roots,
        s.Ickpt_core.Segment.body ))
    (Ickpt_core.Chain.segments report.Engine.chain)

let merge_determinism () =
  let program = example_program "blur.mc" in
  let run parallel =
    Engine.analyze (Engine.Inferred { Engine.inferred with parallel }) program
  in
  let seq = run None in
  let par1 = run (Some { domains = 1; seed_racy = false }) in
  let par4 = run (Some { domains = 4; seed_racy = false }) in
  check_bool "1-domain chain = sequential chain" true
    (segment_keys par1 = segment_keys seq);
  check_bool "4-domain chain = sequential chain" true
    (segment_keys par4 = segment_keys seq);
  (match par4.Engine.par with
  | None -> Alcotest.fail "parallel run carries no par report"
  | Some rep ->
      check_int "domains" 4 rep.Engine.par_domains;
      (* 2 sweeps x 4 rounds fan out, 4 strips each *)
      check_int "sweep fan-outs" 8 rep.Engine.par_sweeps;
      check_int "parallel units" 32 (List.length rep.Engine.par_units));
  check_bool "sequential run carries no par report" true
    (seq.Engine.par = None)

(* ---- phase groups -----------------------------------------------------------

   Two independent while-loops over disjoint globals: all three
   discovered phases have pairwise-disjoint footprints (including the
   lifted loop counters), so they form one parallel group — the
   phase-pairing path, which no example workload exercises. *)

let twoloops_src =
  "int a = 0;\n\
   int b = 0;\n\
   int i = 0;\n\
   int j = 0;\n\
   int main() {\n\
  \  while (i < 5) { a = a + 1; i = i + 1; }\n\
  \  while (j < 5) { b = b + 2; j = j + 1; }\n\
  \  return 0;\n\
   }\n"

let phase_groups () =
  let program = Minic.Parser.parse twoloops_src in
  let sc = If.schedule ~domains:4 (As.infer (Minic.Check.check program)) in
  check_int "one multi-phase group" 1 sc.Sc.sc_groups;
  check_int "three phases" 3 (List.length sc.Sc.sc_phases);
  check_bool "all phases share the group" true
    (List.for_all (fun ps -> ps.Sc.ps_group = 0) sc.Sc.sc_phases);
  let o = par_oracle ~name:"twoloops" program in
  check_bool "grouped execution passes the oracle" true (Elide_oracle.ok o);
  check_bool "the fork actually ran concurrently-checked pairs" true
    (o.Elide_oracle.tallies.Elide_oracle.pairs_checked > 0)

(* ---- sequential-identity oracle -------------------------------------------- *)

(* Exact tallies at 4 domains — (units, sweeps, pairs checked): the
   schedule and the replay are deterministic. *)
let par_tallies =
  [ ("blur.mc", (32, 8, 96));
    ("pagerank.mc", (40, 10, 120));
    ("histogram.mc", (0, 0, 0));
    ("kvlog.mc", (0, 0, 0)) ]

let oracle_examples () =
  List.iter
    (fun (file, (units, sweeps, pairs)) ->
      let o = par_oracle ~name:file (example_program file) in
      check_bool (file ^ " oracle passes") true (Elide_oracle.ok o);
      check_bool (file ^ " not seeded") false o.Elide_oracle.seeded;
      let t = o.Elide_oracle.tallies in
      check_int (file ^ " engine runs") 4 (List.length o.Elide_oracle.reports);
      check_int (file ^ " parallel units") units t.Elide_oracle.par_units;
      check_int (file ^ " sweep fan-outs") sweeps t.Elide_oracle.par_sweeps;
      check_int (file ^ " pairs checked") pairs t.Elide_oracle.pairs_checked)
    par_tallies

(* The seeded overlap writes the same value into the contested cell, so
   the chains stay byte-identical — identity alone cannot catch it. The
   observed-footprint intersection must. *)
let oracle_seeded () =
  List.iter
    (fun (file, conflicts) ->
      let o = par_oracle ~seed_racy:true ~name:file (example_program file) in
      check_bool (file ^ " seeded") true o.Elide_oracle.seeded;
      check_bool (file ^ " oracle refuses") false (Elide_oracle.ok o);
      check_int (file ^ " conflicts observed") conflicts
        (List.length o.Elide_oracle.failures);
      (* Every failure is a disjointness conflict: the chains stayed
         byte-identical in both modes. *)
      List.iter
        (fun (f : Elide_oracle.failure) ->
          check_string "only disjointness fails" "disjointness"
            (Elide_oracle.check_name f.Elide_oracle.check);
          check_bool "conflict names the region" true
            (f.Elide_oracle.detail <> ""))
        o.Elide_oracle.failures)
    [ ("blur.mc", 8); ("pagerank.mc", 20) ]

let suites =
  [ ( "interfere-schedule",
      [ Alcotest.test_case "blur strips" `Quick blur_schedule;
        Alcotest.test_case "pagerank refusal" `Quick pagerank_schedule;
        Alcotest.test_case "kvlog conflicts" `Quick kvlog_schedule;
        Alcotest.test_case "histogram serial" `Quick histogram_schedule;
        Alcotest.test_case "sweep refusals" `Quick sweep_refusals;
        Alcotest.test_case "phase groups" `Quick phase_groups ] );
    ( "par-engine",
      [ Alcotest.test_case "deterministic merge" `Slow merge_determinism ] );
    ( "par-oracle",
      [ Alcotest.test_case "blur passes" `Slow oracle_examples;
        Alcotest.test_case "seeded racy overlap caught" `Slow
          oracle_seeded ] ) ]
