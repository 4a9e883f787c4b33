open Ickpt_analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_ints = Alcotest.(check (list int))

(* ---- attrs -------------------------------------------------------------- *)

let attrs_basics () =
  let attrs = Attrs.create ~n_stmts:3 in
  check_int "n_stmts" 3 (Attrs.n_stmts attrs);
  check_int "roots" 3 (List.length (Attrs.roots attrs));
  (* 6 objects per statement: attr, se, btentry, bt, etentry, et *)
  check_int "heap population" 18 (Ickpt_runtime.Heap.count (Attrs.heap attrs));
  check_int "bt starts unknown" Attrs.bt_unknown (Attrs.get_bt attrs 0);
  check_bool "set_bt changes" true (Attrs.set_bt attrs 0 Attrs.bt_static);
  check_bool "set_bt same is no-op" false (Attrs.set_bt attrs 0 Attrs.bt_static);
  check_int "get_bt" Attrs.bt_static (Attrs.get_bt attrs 0);
  check_bool "set_et changes" true (Attrs.set_et attrs 2 Attrs.et_run_time);
  check_int "get_et" Attrs.et_run_time (Attrs.get_et attrs 2)

let attrs_se_lists () =
  let attrs = Attrs.create ~n_stmts:2 in
  check_ints "reads empty" [] (Attrs.get_reads attrs 0);
  check_bool "set_reads changes" true (Attrs.set_reads attrs 0 [ 1; 4; 9 ]);
  check_ints "reads stored" [ 1; 4; 9 ] (Attrs.get_reads attrs 0);
  check_bool "same list is no-op" false (Attrs.set_reads attrs 0 [ 1; 4; 9 ]);
  check_bool "different list changes" true (Attrs.set_reads attrs 0 [ 1; 4 ]);
  check_ints "reads replaced" [ 1; 4 ] (Attrs.get_reads attrs 0);
  check_bool "writes independent" true (Attrs.set_writes attrs 0 [ 2 ]);
  check_ints "writes stored" [ 2 ] (Attrs.get_writes attrs 0);
  check_ints "other stmt untouched" [] (Attrs.get_reads attrs 1)

let attrs_dirtiness () =
  let attrs = Attrs.create ~n_stmts:1 in
  let heap = Attrs.heap attrs in
  Ickpt_runtime.Heap.clear_all_modified heap;
  ignore (Attrs.set_bt attrs 0 Attrs.bt_dynamic);
  (* Only the BT leaf was dirtied. *)
  check_int "one object dirty" 1 (Ickpt_runtime.Heap.modified_count heap);
  Ickpt_runtime.Heap.clear_all_modified heap;
  ignore (Attrs.set_reads attrs 0 [ 3; 5 ]);
  (* The SEEntry plus two fresh VarRefs. *)
  check_int "three objects dirty" 3 (Ickpt_runtime.Heap.modified_count heap)

let attrs_shapes_validate () =
  let attrs = Attrs.create ~n_stmts:1 in
  List.iter Jspec.Sclass.validate
    [ Attrs.sea_shape attrs; Attrs.bta_shape attrs; Attrs.eta_shape attrs ];
  (* BTA shape: exactly one tracked node (the BT leaf). *)
  check_int "bta tracked" 1 (Jspec.Sclass.tracked_count (Attrs.bta_shape attrs));
  check_int "eta tracked" 1 (Jspec.Sclass.tracked_count (Attrs.eta_shape attrs));
  check_int "sea tracked" 1 (Jspec.Sclass.tracked_count (Attrs.sea_shape attrs))

(* ---- side-effect analysis ----------------------------------------------- *)

let sea_program =
  "int g; int h; int arr[4];\n\
   void set_g(int v) { g = v; }\n\
   int get_h() { return h; }\n\
   int main() { int t; t = get_h(); set_g(t + arr[0]); arr[1] = g; return t; }"

let sea_sets () =
  let p = Minic.Parser.parse sea_program in
  let env = Minic.Check.check p in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count p) in
  let iters = Sea.run env attrs in
  check_bool "needs >= 2 iterations (summaries)" true (iters >= 2);
  let gid x = Option.get (Minic.Check.global_id env x) in
  (* Find statements by shape: sid order is preorder. Statements are:
     0: g = v          (set_g)
     1: return h       (get_h)
     2: t = get_h()    (main)
     3: set_g(t+arr[0])
     4: arr[1] = g
     5: return t *)
  check_ints "stmt0 writes g" [ gid "g" ] (Attrs.get_writes attrs 0);
  check_ints "stmt1 reads h" [ gid "h" ] (Attrs.get_reads attrs 1);
  check_ints "call inherits callee reads" [ gid "h" ] (Attrs.get_reads attrs 2);
  check_ints "call inherits callee writes" [ gid "g" ]
    (Attrs.get_writes attrs 3);
  check_ints "store writes arr" [ gid "arr" ] (Attrs.get_writes attrs 4);
  check_ints "store reads g" [ gid "g" ] (Attrs.get_reads attrs 4)

let sea_summaries () =
  let p = Minic.Parser.parse sea_program in
  let env = Minic.Check.check p in
  let gid x = Option.get (Minic.Check.global_id env x) in
  let summaries = Sea.summaries env in
  let s = List.assoc "main" summaries in
  check_bool "main reads h and arr" true
    (Sea.Int_set.mem (gid "h") s.Sea.reads
    && Sea.Int_set.mem (gid "arr") s.Sea.reads);
  check_bool "main writes g and arr" true
    (Sea.Int_set.mem (gid "g") s.Sea.writes
    && Sea.Int_set.mem (gid "arr") s.Sea.writes)

(* ---- binding-time analysis ---------------------------------------------- *)

let bta_src =
  "int s = 1; int d = 2; int z; int w; int u;\n\
   int twice(int x) { return x * 2; }\n\
   int main() {\n\
   int a; a = s + 1;\n\
   z = twice(s);\n\
   w = twice(d);\n\
   if (d > 0) { u = s; }\n\
   return a;\n\
   }"

let bta_expected () =
  let p = Minic.Parser.parse bta_src in
  let env = Minic.Check.check p in
  let anns = Bta_phase.annotate ~division:[ "s" ] env in
  let bt sid = List.assoc sid anns in
  (* sid 0: return x*2 (twice) — param joins static AND dynamic call sites
     -> dynamic. *)
  check_int "twice body dynamic (joined)" Attrs.bt_dynamic (bt 0);
  (* sid 1: a = s + 1 static *)
  check_int "a = s+1 static" Attrs.bt_static (bt 1);
  (* sid 2: z = twice(s): return bt is joined dynamic *)
  check_int "z via twice dynamic return" Attrs.bt_dynamic (bt 2);
  (* sid 3: w = twice(d) dynamic *)
  check_int "w dynamic" Attrs.bt_dynamic (bt 3);
  (* sid 4: if (d > 0) dynamic condition *)
  check_int "if on d dynamic" Attrs.bt_dynamic (bt 4);
  (* sid 5: u = s under dynamic control -> dynamic *)
  check_int "assignment under dynamic control" Attrs.bt_dynamic (bt 5);
  (* sid 6: return a (a static) *)
  check_int "return a static" Attrs.bt_static (bt 6)

let bta_monotone_fixpoint () =
  let p = Minic.Gen.image_program ~n_filters:4 () in
  let env = Minic.Check.check p in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count p) in
  let iters = Bta_phase.run ~division:Minic.Gen.static_globals env attrs in
  check_bool "terminates" true (iters >= 1 && iters < 50);
  let converged =
    List.init (Attrs.n_stmts attrs) (fun sid -> Attrs.get_bt attrs sid)
  in
  (* A second independent run (which re-ascends from bottom, temporarily
     downgrading annotations) must converge to the same fixpoint. *)
  let attrs2 = Attrs.create ~n_stmts:(Minic.Ast.stmt_count p) in
  ignore (Bta_phase.run ~division:Minic.Gen.static_globals env attrs2);
  let converged2 =
    List.init (Attrs.n_stmts attrs2) (fun sid -> Attrs.get_bt attrs2 sid)
  in
  check_bool "deterministic fixpoint" true (converged = converged2);
  (* The final stored round of a converged run changes nothing, so one
     more incremental checkpoint after a checkpoint would be empty. *)
  Ickpt_runtime.Heap.clear_all_modified (Attrs.heap attrs);
  let changed = ref false in
  List.iteri
    (fun sid bt -> if Attrs.set_bt attrs sid bt then changed := true)
    converged;
  check_bool "re-storing fixpoint is silent" false !changed

let bta_min_iterations () =
  let p = Minic.Gen.small_program () in
  let env = Minic.Check.check p in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count p) in
  let count = ref 0 in
  let iters =
    Bta_phase.run ~on_iteration:(fun _ -> incr count) ~min_iterations:9
      ~division:[ "a" ] env attrs
  in
  check_bool "at least 9" true (iters >= 9);
  check_int "callback per iteration" iters !count

(* ---- evaluation-time analysis ------------------------------------------- *)

let eta_expected () =
  let src =
    "int s = 1; int d = 2; int z; int u;\n\
     int main() {\n\
     z = s + 1;\n\
     while (d > 0) { u = s; d = d - 1; }\n\
     return z;\n\
     }"
  in
  let p = Minic.Parser.parse src in
  let env = Minic.Check.check p in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count p) in
  ignore (Bta_phase.run ~division:[ "s" ] env attrs);
  ignore (Eta_phase.run ~division:[ "s" ] env attrs);
  (* sid 0: z = s + 1 — static and spec-time evaluable *)
  check_int "static assign spec-time" Attrs.et_spec_time (Attrs.get_et attrs 0);
  (* sid 2: u = s under dynamic while — run-time *)
  check_int "under dynamic loop run-time" Attrs.et_run_time
    (Attrs.get_et attrs 2)

(* ---- engine ------------------------------------------------------------- *)

let run_engine mode =
  Engine.analyze
    (Engine.Declared { Engine.declared with mode; bta_min = 5; eta_min = 3 })
    (Minic.Gen.image_program ~n_filters:4 ())

let sizes r =
  List.map
    (fun (p : Engine.phase_report) ->
      List.map (fun (s : Engine.iteration_stat) -> s.Engine.bytes) p.Engine.stats)
    r.Engine.phases

let engine_specialized_matches_incremental () =
  let ri = run_engine Engine.Incremental in
  let rs = run_engine (Engine.Specialized { guard = false }) in
  check_bool "same per-iteration sizes" true (sizes ri = sizes rs);
  (* And bytes, via recovery equality of final states *)
  check_bool "same recovered annotations" true
    (Engine.recover_annotations ri = Engine.recover_annotations rs)

let engine_full_dominates () =
  let rf = run_engine Engine.Full in
  let ri = run_engine Engine.Incremental in
  let total r =
    List.fold_left (fun acc p -> acc + Engine.phase_bytes p) 0 r.Engine.phases
  in
  check_bool "incremental smaller" true (total ri < total rf);
  (* Full-mode BTA/ETA iterations all have the same size (the heap stops
     growing once SEA's side-effect lists have converged); incremental
     shrinks. *)
  (match sizes rf with
  | [ _sea; (first :: _ as bta_sizes); eta_sizes ] ->
      check_bool "full bta sizes constant" true
        (List.for_all (( = ) first) bta_sizes);
      check_bool "full eta sizes constant" true
        (List.for_all (( = ) first) eta_sizes)
  | _ -> Alcotest.fail "expected three phases");
  match sizes ri with
  | sea_sizes :: _ ->
      check_bool "incremental non-increasing tail" true
        (match List.rev sea_sizes with last :: _ -> last <= List.hd sea_sizes | [] -> true)
  | [] -> Alcotest.fail "no phases"

let engine_guarded_specialization () =
  (* With guards on, the phase declarations must actually hold. *)
  let r =
    Engine.analyze
      (Engine.Declared
         { Engine.declared with
           mode = Engine.Specialized { guard = true };
           bta_min = 3 })
      (Minic.Gen.image_program ~n_filters:3 ())
  in
  check_int "three phases" 3 (List.length r.Engine.phases)

let engine_recovery_matches_live () =
  let r = run_engine Engine.Incremental in
  let recovered = Engine.recover_annotations r in
  let live =
    List.init r.Engine.n_stmts (fun sid ->
        ( Attrs.get_bt (Engine.attrs r) sid,
          Attrs.get_et (Engine.attrs r) sid,
          Attrs.get_reads (Engine.attrs r) sid,
          Attrs.get_writes (Engine.attrs r) sid ))
  in
  check_bool "recovered = live" true (recovered = live)

let engine_analyses_mode_independent () =
  let a = run_engine Engine.Full in
  let b = run_engine (Engine.Specialized { guard = false }) in
  check_bool "annotations independent of checkpoint mode" true
    (Engine.recover_annotations a = Engine.recover_annotations b)

let engine_storage_roundtrip () =
  let open Ickpt_cas in
  let r = run_engine Engine.Incremental in
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "ickpt_engine_chain"
  in
  let files = [ Store.pack_path path; Store.index_path path ] in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files;
  let schema = Attrs.schema (Engine.attrs r) in
  let store = Store.open_ schema ~path in
  List.iter
    (fun seg -> ignore (Store.append_segment store seg))
    (Ickpt_core.Chain.segments r.Engine.chain);
  let store = Store.open_ schema ~path in
  check_int "segment count" (Ickpt_core.Chain.length r.Engine.chain)
    (List.length (Store.epochs store));
  (match Ickpt_core.Chain.recover r.Engine.chain with
  | Ok (_, live) ->
      let _, stored =
        Store.restore store ~epoch:(Option.get (Store.latest_epoch store))
      in
      check_bool "store restores the chain's state" true
        (List.for_all2 Ickpt_runtime.Deep_eq.equal live stored)
  | Error e -> Alcotest.fail e);
  List.iter Sys.remove files

(* ---- declaration inference (future-work feature) ------------------------ *)

let decls_infer_bta_shape () =
  let p = Minic.Gen.image_program ~n_filters:3 () in
  let env = Minic.Check.check p in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count p) in
  ignore (Sea.run env attrs);
  (* Observe one BTA run; the inferred shape must track only BT leaves. *)
  let _, inferred =
    Decls.infer attrs (fun () ->
        Bta_phase.run ~division:Minic.Gen.static_globals env attrs)
  in
  check_int "inferred tracks exactly BT" 1 (Jspec.Sclass.tracked_count inferred);
  (* The inferred shape produces the same residual code size as the
     hand-written declaration. *)
  let by_hand = Jspec.Pe.specialize (Attrs.bta_shape attrs) in
  let by_inference = Jspec.Pe.specialize inferred in
  check_int "same residual size"
    (Jspec.Cklang.stmt_count by_hand.Jspec.Pe.body)
    (Jspec.Cklang.stmt_count by_inference.Jspec.Pe.body)

let suites =
  [ ( "attrs",
      [ Alcotest.test_case "basics" `Quick attrs_basics;
        Alcotest.test_case "se lists" `Quick attrs_se_lists;
        Alcotest.test_case "dirtiness" `Quick attrs_dirtiness;
        Alcotest.test_case "shapes validate" `Quick attrs_shapes_validate ] );
    ( "sea",
      [ Alcotest.test_case "per-statement sets" `Quick sea_sets;
        Alcotest.test_case "summaries" `Quick sea_summaries ] );
    ( "bta",
      [ Alcotest.test_case "expected annotations" `Quick bta_expected;
        Alcotest.test_case "monotone fixpoint" `Quick bta_monotone_fixpoint;
        Alcotest.test_case "min iterations" `Quick bta_min_iterations ] );
    ("eta", [ Alcotest.test_case "expected annotations" `Quick eta_expected ]);
    ( "engine",
      [ Alcotest.test_case "specialized == incremental" `Quick
          engine_specialized_matches_incremental;
        Alcotest.test_case "full dominates" `Quick engine_full_dominates;
        Alcotest.test_case "guarded specialization" `Quick
          engine_guarded_specialization;
        Alcotest.test_case "recovery matches live" `Quick
          engine_recovery_matches_live;
        Alcotest.test_case "mode independence" `Quick
          engine_analyses_mode_independent;
        Alcotest.test_case "storage roundtrip" `Quick engine_storage_roundtrip
      ] );
    ( "decls",
      [ Alcotest.test_case "infer bta shape" `Quick decls_infer_bta_shape ] )
  ]
