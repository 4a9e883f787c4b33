(* Static write-barrier elision: the Barrier_elide plans, the guard-work
   reduction they buy, and the Elide_oracle differential soundness checks
   (byte-identical chains + invariant I8) over every workload. *)

open Ickpt_analysis
module Be = Staticcheck.Barrier_elide
module Pm = Staticcheck.Phase_model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- plan shapes ---------------------------------------------------------- *)

(* Each phase writes exactly one site family; the other two elide. *)
let expected_elisions =
  [ (Pm.Sea, [ Be.Bt; Be.Et ]);
    (Pm.Bta, [ Be.Lists; Be.Et ]);
    (Pm.Eta, [ Be.Lists; Be.Bt ]) ]

let declared attrs = function
  | Pm.Sea -> Attrs.sea_shape attrs
  | Pm.Bta -> Attrs.bta_shape attrs
  | Pm.Eta -> Attrs.eta_shape attrs

let plan_decisions () =
  let attrs = Attrs.create ~n_stmts:64 in
  List.iter
    (fun (phase, expected) ->
      let plan = Be.plan ~declared:(declared attrs phase) phase in
      let elided = Be.elided plan in
      List.iter
        (fun site ->
          check_bool
            (Printf.sprintf "%s elides %s" (Pm.name phase) (Be.site_name site))
            (List.mem site expected) (List.mem site elided))
        Be.all_sites;
      (* the kept site is the one the phase really writes: region non-empty *)
      List.iter
        (fun site ->
          let d = Be.decision plan site in
          check_bool
            (Printf.sprintf "%s %s region emptiness" (Pm.name phase)
               (Be.site_name site))
            d.Be.elide
            (Staticcheck.Regions.is_bot d.Be.region))
        Be.all_sites)
    expected_elisions

let guards_fully_discharged () =
  let attrs = Attrs.create ~n_stmts:64 in
  List.iter
    (fun (phase, _) ->
      let plan = Be.plan ~declared:(declared attrs phase) phase in
      check_bool
        (Pm.name phase ^ " guard discharged")
        true
        (plan.Be.guard_shape = None);
      check_bool
        (Pm.name phase ^ " no error findings")
        false
        (Staticcheck.Finding.has_errors plan.Be.findings))
    expected_elisions

(* Rescaling: emptiness is invariant; a region reaching the last model
   cell extends to the workload's statement count. *)
let region_rescaling () =
  let sea_lists = Be.site_region_for ~n_stmts:488 Pm.Sea Be.Lists in
  check_bool "sea se-lists covers large workloads" true
    (Staticcheck.Regions.mem 487 sea_lists);
  check_bool "sea bt stays empty at any size" true
    (Staticcheck.Regions.is_bot (Be.site_region_for ~n_stmts:488 Pm.Sea Be.Bt));
  let small = Be.site_region_for ~n_stmts:8 Pm.Sea Be.Lists in
  check_bool "clamped to small workload" false
    (Staticcheck.Regions.mem 8 small);
  check_bool "small workload still covered" true
    (Staticcheck.Regions.mem 7 small)

(* ---- unsound declaration: barrier kept, guard retained -------------------- *)

(* Declare the bta shape (SEEntry subtrees Clean) for the sea phase,
   which writes the side-effect lists: the planner must refuse to elide
   the written site, emit an Error finding, and keep a runtime guard. *)
let unsound_declaration_kept () =
  let attrs = Attrs.create ~n_stmts:64 in
  let plan = Be.plan ~declared:(Attrs.bta_shape attrs) Pm.Sea in
  check_bool "se-lists barrier kept" false
    (List.mem Be.Lists (Be.elided plan));
  check_bool "error finding emitted" true
    (Staticcheck.Finding.has_errors plan.Be.findings);
  check_bool "guard retained" true (plan.Be.guard_shape <> None)

(* ---- guard-work reduction ------------------------------------------------- *)

(* With every phase guard statically discharged, the elided
   guarded-specialized run performs zero guard traversals; the
   instrumented one walks the attribute tree every checkpoint. *)
let guard_visits_drop () =
  let program = Minic.Gen.small_program () in
  let run elide =
    Engine.Declared
      { Engine.declared with mode = Engine.Specialized { guard = true }; elide }
  in
  Jspec.Guard.reset_visits ();
  let (_ : Engine.report) = Engine.analyze (run false) program in
  let instrumented = Jspec.Guard.nodes_visited () in
  Jspec.Guard.reset_visits ();
  let (_ : Engine.report) = Engine.analyze (run true) program in
  let elided = Jspec.Guard.nodes_visited () in
  check_bool "instrumented run guards" true (instrumented > 0);
  check_int "elided run skips every guard" 0 elided

(* ---- differential oracle -------------------------------------------------- *)

(* The I8 tallies are exact: the engine runs are deterministic, so any
   drift in what the oracle decodes is a behaviour change, not noise. *)
let oracle_outcome name program ~cells ~segments =
  let o = Elide_oracle.run ~name Elide_oracle.Elision program in
  if not (Elide_oracle.ok o) then
    Alcotest.failf "oracle failed:@\n%a" Elide_oracle.pp o;
  let t = o.Elide_oracle.tallies in
  check_int (name ^ ": engine runs") 4 (List.length o.Elide_oracle.reports);
  check_int (name ^ ": segments decoded") segments t.Elide_oracle.segments;
  check_int (name ^ ": dirty cells observed") cells t.Elide_oracle.dirty_cells

let builtin_tallies = [ ("image", (2299, 9)); ("small", (49, 7)) ]

let oracle_builtin () =
  List.iter
    (fun (name, program) ->
      let cells, segments = List.assoc name builtin_tallies in
      oracle_outcome name program ~cells ~segments)
    (Elide_oracle.builtin_workloads ())

(* The example mini-C workloads, declared as dune deps of the test so
   they are present in the sandbox. *)
(* `dune runtest` runs the binary in the test directory; `dune exec`
   runs it at the workspace root. Probe both. *)
let example_path file =
  let candidates =
    [ Filename.concat "../examples/workloads" file;
      Filename.concat "_build/default/examples/workloads" file;
      Filename.concat "examples/workloads" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "example workload %s not found" file

let oracle_examples () =
  List.iter
    (fun (file, (cells, segments)) ->
      let path = example_path file in
      let ic = open_in_bin path in
      let src =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      oracle_outcome file (Minic.Parser.parse src) ~cells ~segments)
    [ ("blur.mc", (112, 7)); ("histogram.mc", (111, 8)) ]

let suites =
  [ ( "barrier-elide",
      [ Alcotest.test_case "plan decisions" `Quick plan_decisions;
        Alcotest.test_case "guards discharged" `Quick guards_fully_discharged;
        Alcotest.test_case "region rescaling" `Quick region_rescaling;
        Alcotest.test_case "unsound declaration kept" `Quick
          unsound_declaration_kept;
        Alcotest.test_case "guard visits drop" `Quick guard_visits_drop ] );
    ( "elide-oracle",
      [ Alcotest.test_case "builtin workloads" `Quick oracle_builtin;
        Alcotest.test_case "example workloads" `Quick oracle_examples ] ) ]
