(* Additional hardening tests: structural assertions on phase-specialized
   residual code (the essence of paper Figure 6), interpreter
   instrumentation, and harness utilities. *)

open Ickpt_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Figure 6 structure: the BTA-phase residual code ---------------------- *)

let bta_residual_structure () =
  let attrs = Ickpt_analysis.Attrs.create ~n_stmts:1 in
  let plan = Jspec.Pe.specialize (Ickpt_analysis.Attrs.bta_shape attrs) in
  (* The residual code must bind the BTEntry and BT objects but never the
     SEEntry's VarRef lists or the ET leaf (their subtrees are clean).
     var_klass is a superset (it records candidates whose bindings were
     dropped), so inspect the variables actually bound in the body. *)
  let bound_klasses plan =
    let vars = ref [] in
    let rec go = function
      | [] -> ()
      | Jspec.Cklang.Let (v, _, b) :: rest ->
          vars := v :: !vars;
          go b;
          go rest
      | Jspec.Cklang.If (_, t, f) :: rest ->
          go t;
          go f;
          go rest
      | Jspec.Cklang.For (_, _, _, b) :: rest ->
          go b;
          go rest
      | _ :: rest -> go rest
    in
    go plan.Jspec.Pe.body;
    List.filter_map
      (fun v -> List.assoc_opt v plan.Jspec.Pe.var_klass)
      !vars
  in
  let bta_bound = bound_klasses plan in
  check_bool "binds BT" true (List.mem "BT" bta_bound);
  check_bool "never binds VarRef" false (List.mem "VarRef" bta_bound);
  (* One residual modified-test: the BT leaf. *)
  let java = Jspec.Java_pp.to_string plan in
  check_bool "records something" true
    (Test_util.contains_substring java "d.writeInt");
  (* No generic fallback: the whole attribute structure is static. *)
  let rec has_generic = function
    | [] -> false
    | Jspec.Cklang.Call_generic _ :: _ -> true
    | Jspec.Cklang.If (_, t, f) :: rest ->
        has_generic t || has_generic f || has_generic rest
    | Jspec.Cklang.Let (_, _, b) :: rest
    | Jspec.Cklang.For (_, _, _, b) :: rest ->
        has_generic b || has_generic rest
    | _ :: rest -> has_generic rest
  in
  check_bool "no generic fallback" false (has_generic plan.Jspec.Pe.body);
  (* The ETA plan mirrors it with ET in place of BT. *)
  let eta = Jspec.Pe.specialize (Ickpt_analysis.Attrs.eta_shape attrs) in
  let eta_bound = bound_klasses eta in
  check_bool "eta binds ET" true (List.mem "ET" eta_bound);
  check_bool "eta never binds BT" false (List.mem "BT" eta_bound)

let residual_size_scales_with_tracking () =
  (* More static knowledge => less residual code. *)
  let env = Test_util.make_env ()
  and stmts shape = Jspec.Cklang.stmt_count (Jspec.Pe.specialize shape).Jspec.Pe.body in
  ignore env;
  let t = Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with
        Ickpt_synth.Synth.n_structures = 1; modified_lists = 1; last_only = true }
  in
  let s_struct = stmts (Ickpt_synth.Synth.shape_structure t) in
  let s_lists = stmts (Ickpt_synth.Synth.shape_modified_lists t) in
  let s_last = stmts (Ickpt_synth.Synth.shape_last_only t) in
  check_bool "structure > lists" true (s_struct > s_lists);
  check_bool "lists > last-only" true (s_lists > s_last)

(* ---- two-level annotation --------------------------------------------------- *)

let two_level_annotations () =
  let env = Test_util.make_env () in
  (* Tracked receiver: the modified test stays, the fold's loop unrolls,
     the record/fold dispatches resolve. *)
  let tracked = Jspec.Sclass.leaf env.Test_util.pair in
  let anns = Jspec.Bta.annotate_method tracked Jspec.Cklang.M_checkpoint in
  let actions = List.map snd anns in
  check_bool "test residual on tracked" true
    (List.mem Jspec.Bta.Residual actions);
  check_bool "fold resolved" true (List.mem Jspec.Bta.Resolved actions);
  (* Clean receiver: the test statically reduces. *)
  let clean = Jspec.Sclass.leaf ~status:Jspec.Sclass.Clean env.Test_util.pair in
  let anns = Jspec.Bta.annotate_method clean Jspec.Cklang.M_checkpoint in
  (match List.map snd anns with
  | [ Jspec.Bta.Reduced; _ ] -> ()
  | other ->
      Alcotest.failf "unexpected annotations: %s"
        (String.concat ","
           (List.map (Format.asprintf "%a" Jspec.Bta.pp_action) other)));
  (* The record method's field loops unroll for any shaped receiver. *)
  let anns = Jspec.Bta.annotate_method tracked Jspec.Cklang.M_record in
  check_bool "record loops unrolled" true
    (List.for_all (fun (_, a) -> a = Jspec.Bta.Unrolled) anns);
  (* Unknown child: the checkpoint call inside fold falls back — visible
     when annotating fold for a shape whose child is Unknown. *)
  let with_unknown =
    Jspec.Sclass.shape env.Test_util.pair
      [| Jspec.Sclass.Unknown; Jspec.Sclass.Null_child |]
  in
  let rendered =
    Format.asprintf "%a" Jspec.Bta.pp_two_level
      (Jspec.Bta.annotate_method with_unknown Jspec.Cklang.M_fold)
  in
  check_bool "two-level output renders" true
    (Test_util.contains_substring rendered "S:unrolled")

(* ---- interpreter instrumentation ------------------------------------------ *)

let interp_counts_dispatches () =
  let env = Test_util.make_env () in
  let root =
    Test_util.build env
      (Test_util.Pair (1, 2, Some (Test_util.Leaf 3), Some (Test_util.Leaf 4)))
  in
  let before = Jspec.Interp.dispatch_count () in
  let d = Ickpt_stream.Out_stream.sink () in
  Jspec.Interp.run_program Jspec.Generic_method.program d root;
  let dispatches = Jspec.Interp.dispatch_count () - before in
  (* Three objects, two virtual calls each (record while modified + fold),
     plus two recursive checkpoint invocations of the children resolved
     through the same method table (the root's checkpoint body runs
     directly). *)
  check_int "dispatch accounting" 8 dispatches

(* ---- heap sweep and dot export --------------------------------------------- *)

let heap_sweep () =
  let env = Test_util.make_env () in
  let root =
    Test_util.build env (Test_util.Pair (1, 2, Some (Test_util.Leaf 3), None))
  in
  let orphan = Test_util.build env (Test_util.Leaf 99) in
  check_int "all registered" 3 (Ickpt_runtime.Heap.count env.Test_util.heap);
  let removed =
    Ickpt_runtime.Heap.sweep env.Test_util.heap ~roots:[ root ]
  in
  check_int "one orphan swept" 1 removed;
  check_int "registry shrank" 2 (Ickpt_runtime.Heap.count env.Test_util.heap);
  check_bool "orphan gone" true
    (Option.is_none
       (Ickpt_runtime.Heap.find env.Test_util.heap
          orphan.Ickpt_runtime.Model.info.Ickpt_runtime.Model.id));
  (* Allocation ids keep progressing. *)
  let next = Ickpt_runtime.Heap.next_id env.Test_util.heap in
  let fresh = Ickpt_runtime.Heap.alloc env.Test_util.heap env.Test_util.leaf in
  check_int "ids not reused" next fresh.Ickpt_runtime.Model.info.Ickpt_runtime.Model.id

let heap_sweep_after_analysis () =
  (* The analysis engine's superseded VarRef chains become sweepable. *)
  let attrs = Ickpt_analysis.Attrs.create ~n_stmts:2 in
  ignore (Ickpt_analysis.Attrs.set_reads attrs 0 [ 1; 2; 3 ]);
  ignore (Ickpt_analysis.Attrs.set_reads attrs 0 [ 4 ]);
  let removed =
    Ickpt_runtime.Heap.sweep
      (Ickpt_analysis.Attrs.heap attrs)
      ~roots:(Ickpt_analysis.Attrs.roots attrs)
  in
  check_int "old chain swept" 3 removed;
  Alcotest.(check (list int))
    "live chain intact" [ 4 ]
    (Ickpt_analysis.Attrs.get_reads attrs 0)

let dot_export () =
  let env = Test_util.make_env () in
  let root =
    Test_util.build env (Test_util.Pair (1, 2, Some (Test_util.Leaf 3), None))
  in
  Ickpt_runtime.Heap.clear_all_modified env.Test_util.heap;
  (match root.Ickpt_runtime.Model.children.(0) with
  | Some leaf -> Ickpt_runtime.Barrier.touch leaf
  | None -> Alcotest.fail "missing child");
  let dot = Ickpt_runtime.Dot.to_dot [ root ] in
  check_bool "digraph" true (Test_util.contains_substring dot "digraph heap");
  check_bool "names classes" true (Test_util.contains_substring dot "Pair #");
  check_bool "edge present" true (Test_util.contains_substring dot "->");
  check_bool "dirty node marked" true
    (Test_util.contains_substring dot "peripheries=2")

(* ---- harness utilities ----------------------------------------------------- *)

let table_rendering () =
  let t =
    Ickpt_harness.Table.create ~title:"demo" ~columns:[ "a"; "long header" ]
  in
  Ickpt_harness.Table.add_row t [ "x"; "y" ];
  Ickpt_harness.Table.add_row t [ "longer cell"; "z" ];
  let s = Ickpt_harness.Table.to_string t in
  check_bool "title present" true (Test_util.contains_substring s "== demo ==");
  check_bool "cells aligned" true (Test_util.contains_substring s "longer cell");
  match Ickpt_harness.Table.add_row t [ "too"; "many"; "cells" ] with
  | _ -> Alcotest.fail "row width mismatch accepted"
  | exception Invalid_argument _ -> ()

let table_cells () =
  let open Ickpt_harness.Table in
  check_bool "bytes mb" true (cell_bytes 12_300_000 = "12.30 Mb");
  check_bool "bytes kb" true (cell_bytes 4_500 = "4.5 Kb");
  check_bool "bytes b" true (cell_bytes 321 = "321 b");
  check_bool "seconds" true (cell_seconds 1.5 = "1.50 s");
  check_bool "millis" true (cell_seconds 0.0042 = "4.20 ms");
  check_bool "micros" true (cell_seconds 0.0000042 = "4.2 us");
  check_bool "speedup" true (cell_speedup 3.14159 = "3.14x");
  check_bool "ratio" true (cell_ratio 1 2 = "0.50");
  check_bool "ratio zero" true (cell_ratio 1 0 = "n/a")

let clock_sanity () =
  let (), s = Ickpt_harness.Clock.time (fun () -> Sys.opaque_identity (ignore (Array.make 1000 0))) in
  check_bool "non-negative" true (s >= 0.0);
  let x, best = Ickpt_harness.Clock.best_of ~repeats:3 (fun () -> 42) in
  check_int "result returned" 42 x;
  check_bool "best non-negative" true (best >= 0.0)

(* ---- policy edge cases ------------------------------------------------------ *)

let policy_bytes_limit_progression () =
  let env = Test_util.make_env () in
  let root = Test_util.build env (Test_util.Pair (0, 0, None, None)) in
  let chain = Chain.create env.Test_util.schema in
  let policy = Policy.Chain_bytes_limit 20 in
  ignore (Chain.take_full chain [ root ]);
  (* Small incrementals accumulate until the limit trips a full. *)
  let rec drive kinds n =
    if n = 0 then List.rev kinds
    else begin
      Ickpt_runtime.Barrier.set_int root 0 n;
      let kind =
        Policy.decide policy ~next:(Chain.next chain)
          ~since_full_bytes:(Chain.since_full_bytes chain)
      in
      (match kind with
      | Segment.Full -> ignore (Chain.take_full chain [ root ])
      | Segment.Incremental -> ignore (Chain.take_incremental chain [ root ]));
      drive (kind :: kinds) (n - 1)
    end
  in
  let kinds = drive [] 8 in
  check_bool "at least one forced full" true
    (List.exists (fun k -> k = Segment.Full) kinds);
  check_bool "not all full" true
    (List.exists (fun k -> k = Segment.Incremental) kinds)

let policy_full_every_validation () =
  let env = Test_util.make_env () in
  let chain = Chain.create env.Test_util.schema in
  let root = Test_util.build env (Test_util.Leaf 0) in
  ignore (Chain.take_full chain [ root ]);
  match
    Policy.decide (Policy.Full_every 0) ~next:(Chain.next chain)
      ~since_full_bytes:(Chain.since_full_bytes chain)
  with
  | _ -> Alcotest.fail "Full_every 0 accepted"
  | exception Invalid_argument _ -> ()

let suites =
  [ ( "residual-structure",
      [ Alcotest.test_case "bta residual (Fig 6)" `Quick bta_residual_structure;
        Alcotest.test_case "residual size vs knowledge" `Quick
          residual_size_scales_with_tracking ] );
    ( "instrumentation",
      [ Alcotest.test_case "interp dispatch count" `Quick
          interp_counts_dispatches ] );
    ( "two-level",
      [ Alcotest.test_case "annotations" `Quick two_level_annotations ] );
    ( "heap-extras",
      [ Alcotest.test_case "sweep" `Quick heap_sweep;
        Alcotest.test_case "sweep after analysis" `Quick
          heap_sweep_after_analysis;
        Alcotest.test_case "dot export" `Quick dot_export ] );
    ( "harness",
      [ Alcotest.test_case "table rendering" `Quick table_rendering;
        Alcotest.test_case "table cells" `Quick table_cells;
        Alcotest.test_case "clock sanity" `Quick clock_sanity ] );
    ( "policy-edge",
      [ Alcotest.test_case "bytes limit progression" `Quick
          policy_bytes_limit_progression;
        Alcotest.test_case "full_every validation" `Quick
          policy_full_every_validation ] ) ]
