(* Tests for the production-layer extras: the store as checkpoint manager
   (policy, specialized bodies, resume, GC), checkpoint diffing, the
   specialized-plan cache and the dead-code consumer of the side-effect
   analysis. *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_cas
open Test_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- the store as checkpoint manager ---------------------------------- *)

let manager_policy_and_persistence () =
  let env = make_env () in
  let root = build env (Pair (1, 2, Some (Leaf 3), None)) in
  let path = temp_store "ickpt_manager" in
  let store = Store.open_ ~policy:(Policy.Full_every 3) env.schema ~path in
  (* seq 0 full, 1-2 incremental, 3 full ... *)
  let kinds = ref [] in
  for i = 0 to 5 do
    Barrier.set_int root 0 i;
    let epoch = Store.checkpoint store [ root ] in
    check_int "epochs count up" i epoch;
    kinds := Store.kind_of_epoch store epoch :: !kinds
  done;
  let expected =
    Segment.[ Full; Incremental; Incremental; Full; Incremental; Incremental ]
  in
  check_bool "kinds follow policy" true (List.rev !kinds = expected);
  (* Recovery from disk sees the final state. *)
  (match restore_latest env.schema ~path with
  | Some (_, [ root' ]) -> check_int "final value" 5 root'.Model.ints.(0)
  | _ -> Alcotest.fail "wrong root count");
  remove_store path

let manager_gc_then_checkpoint () =
  let env = make_env () in
  let root = build env (Leaf 0) in
  let path = temp_store "ickpt_manager_gc" in
  let store = Store.open_ ~policy:(Policy.Full_every 4) env.schema ~path in
  for i = 1 to 10 do
    Barrier.set_int root 0 i;
    ignore (Store.checkpoint store [ root ]);
    if i mod 5 = 0 then ignore (Store.gc store ~retain:(Store.Keep_last 1))
  done;
  (* GC widened down to epoch 8 (full); epoch 9 extends it. *)
  Alcotest.(check (list int)) "gc bounded the chain" [ 8; 9 ]
    (Store.epochs store);
  (match restore_latest env.schema ~path with
  | Some (_, [ root' ]) -> check_int "state survives gc" 10 root'.Model.ints.(0)
  | _ -> Alcotest.fail "wrong root count");
  remove_store path

let manager_checkpoint_with_specialized () =
  let env = make_env () in
  let root = build env (Pair (7, 8, Some (Leaf 9), None)) in
  let path = temp_store "ickpt_manager_spec" in
  let store = Store.open_ env.schema ~path in
  (* base full *)
  ignore (Store.checkpoint store [ root ]);
  Barrier.set_int root 1 42;
  let shape =
    Jspec.Sclass.shape env.pair
      [| Jspec.Sclass.Exact (Jspec.Sclass.leaf ~status:Jspec.Sclass.Clean env.leaf);
         Jspec.Sclass.Null_child |]
  in
  let runner = Jspec.Compile.residual (Jspec.Pe.specialize shape) in
  let epoch =
    Store.checkpoint_with store [ root ] ~body:(fun d roots ->
        List.iter (fun r -> runner d r) roots)
  in
  check_bool "specialized segment is incremental" true
    (Store.kind_of_epoch store epoch = Segment.Incremental);
  check_bool "specialized segment recorded something" true
    (Segment.body_size (Store.segment_of_epoch store epoch) > 0);
  (match restore_latest env.schema ~path with
  | Some (_, [ root' ]) ->
      check_int "specialized write recovered" 42 root'.Model.ints.(1)
  | _ -> Alcotest.fail "wrong root count");
  remove_store path

let manager_resumes_sequence () =
  let env = make_env () in
  let root = build env (Leaf 1) in
  let path = temp_store "ickpt_manager_resume" in
  let store = Store.open_ env.schema ~path in
  ignore (Store.checkpoint store [ root ]);
  Barrier.touch root;
  ignore (Store.checkpoint store [ root ]);
  (* A second open continues the chain instead of restarting it. *)
  let store2 = Store.open_ env.schema ~path in
  Barrier.set_int root 0 99;
  check_int "resumed at seq 2" 2 (Store.checkpoint store2 [ root ]);
  check_bool "resumed incremental" true
    (Store.kind_of_epoch store2 2 = Segment.Incremental);
  (match restore_latest env.schema ~path with
  | Some (_, [ root' ]) -> check_int "post-resume state" 99 root'.Model.ints.(0)
  | _ -> Alcotest.fail "wrong root count");
  remove_store path

(* Stateful property: any interleaving of mutations, checkpoints and
   compactions (GC down to the newest epoch's full base), ending in a
   checkpoint, recovers from disk to exactly the live state. *)
type manager_op = Op_mutate of Test_util.mutation | Op_checkpoint | Op_compact

let manager_op_gen =
  let open QCheck2.Gen in
  frequency
    [ (5, map (fun m -> Op_mutate m) Test_util.mutation_gen);
      (3, return Op_checkpoint);
      (1, return Op_compact) ]

let prop_manager_random_ops =
  QCheck2.Test.make ~name:"manager: random op sequences recover to live state"
    ~count:60
    QCheck2.Gen.(pair Test_util.tree_gen (list_size (int_range 0 20) manager_op_gen))
    (fun (tree, ops) ->
      let env = make_env () in
      let root = build env tree in
      let objs = Array.of_list (all_objects root) in
      let path =
        temp_store
          (Printf.sprintf "ickpt_mgr_prop_%d" (Hashtbl.hash (tree, ops)))
      in
      let store = Store.open_ ~policy:(Policy.Full_every 4) env.schema ~path in
      List.iter
        (fun op ->
          match op with
          | Op_mutate { victim; slot; value } ->
              let o = objs.(victim mod Array.length objs) in
              let n = Array.length o.Model.ints in
              if n > 0 then Barrier.set_int o (slot mod n) value
              else Barrier.touch o
          | Op_checkpoint -> ignore (Store.checkpoint store [ root ])
          | Op_compact -> ignore (Store.gc store ~retain:(Store.Keep_last 1)))
        (ops @ [ Op_checkpoint ]);
      let ok =
        match restore_latest env.schema ~path with
        | Some (_, [ root' ]) -> Deep_eq.equal root root'
        | _ -> false
      in
      remove_store path;
      ok)

(* ---- diff ---------------------------------------------------------------- *)

let diff_detects_changes () =
  let env = make_env () in
  let root = build env (Pair (1, 2, Some (Leaf 3), Some (Leaf 4))) in
  let chain_a = Chain.create env.schema in
  ignore (Chain.take_full chain_a [ root ]);
  (* Evolve: change a scalar, drop a child, touch nothing else. *)
  let chain_b = Chain.create env.schema in
  Barrier.set_int root 0 100;
  (match root.Model.children.(1) with
  | Some _ -> Barrier.set_child root 1 None
  | None -> Alcotest.fail "missing child");
  ignore (Chain.take_full chain_b [ root ]);
  let changes = Diff.chains chain_a chain_b in
  let has pred = List.exists pred changes in
  check_bool "int change found" true
    (has (function
      | Diff.Int_changed { slot = 0; before = 1; after = 100; _ } -> true
      | _ -> false));
  check_bool "child change found" true
    (has (function
      | Diff.Child_changed { slot = 1; after; _ } -> after = Model.null_id
      | _ -> false));
  (* The orphaned leaf disappears from the second full checkpoint. *)
  check_bool "removal found" true
    (has (function Diff.Removed _ -> true | _ -> false));
  check_bool "summary mentions changes" true
    (Test_util.contains_substring (Diff.summary changes) "objects changed")

let diff_empty_on_identical () =
  let env = make_env () in
  let root = build env (Pair (1, 2, Some (Leaf 3), None)) in
  let chain_a = Chain.create env.schema in
  ignore (Chain.take_full chain_a [ root ]);
  let chain_b = Chain.create env.schema in
  Barrier.touch root;
  ignore (Chain.take_full chain_b [ root ]);
  Alcotest.(check (list string))
    "no changes" []
    (List.map (Format.asprintf "%a" Diff.pp_change) (Diff.chains chain_a chain_b))

let diff_incremental_shows_iteration_delta () =
  (* The analysis use case: diff two consecutive chains to see exactly
     which annotations one BTA iteration changed. *)
  let env = make_env () in
  let root = build env (Pair (0, 0, Some (Leaf 0), None)) in
  let chain = Chain.create env.schema in
  ignore (Chain.take_full chain [ root ]);
  let before = Chain.segments chain in
  (match root.Model.children.(0) with
  | Some leaf -> Barrier.set_int leaf 0 7
  | None -> Alcotest.fail "missing leaf");
  ignore (Chain.take_incremental chain [ root ]);
  let changes =
    Diff.segments env.schema ~before ~after:(Chain.segments chain)
  in
  check_int "exactly one change" 1 (List.length changes)

(* Property: the diff between two consecutive checkpoint states names
   exactly the objects whose values the mutation script changed. *)
let prop_diff_matches_barrier_trace =
  QCheck2.Test.make ~name:"diff == value-changing writes between checkpoints"
    ~count:80
    QCheck2.Gen.(pair Test_util.tree_gen (list_size (int_range 0 10) Test_util.mutation_gen))
    (fun (tree, muts) ->
      let env = make_env () in
      let root = build env tree in
      let chain = Chain.create env.schema in
      ignore (Chain.take_full chain [ root ]);
      let before = Chain.segments chain in
      (* Apply mutations; the expected diff is the set of objects whose
         final values differ from the snapshot (a write-then-revert
         sequence dirties the flag but produces no state change, and the
         diff rightly shows nothing for it). *)
      let objs = Array.of_list (all_objects root) in
      let snapshot =
        Array.map (fun (o : Model.obj) -> Array.copy o.Model.ints) objs
      in
      List.iter
        (fun { Test_util.victim; slot; value } ->
          let o = objs.(victim mod Array.length objs) in
          let n = Array.length o.Model.ints in
          if n > 0 then ignore (Barrier.set_int_if_changed o (slot mod n) value))
        muts;
      let changed = Hashtbl.create 16 in
      Array.iteri
        (fun i (o : Model.obj) ->
          if o.Model.ints <> snapshot.(i) then
            Hashtbl.replace changed o.Model.info.Model.id ())
        objs;
      ignore (Chain.take_incremental chain [ root ]);
      let diff_ids = Hashtbl.create 16 in
      List.iter
        (function
          | Diff.Int_changed { id; _ } -> Hashtbl.replace diff_ids id ()
          | Diff.Child_changed { id; _ } | Diff.Class_changed { id; _ } ->
              Hashtbl.replace diff_ids id ()
          | Diff.Added _ | Diff.Removed _ -> ())
        (Diff.segments env.schema ~before ~after:(Chain.segments chain));
      let to_sorted tbl =
        Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
      in
      to_sorted diff_ids = to_sorted changed)

(* ---- spec cache ----------------------------------------------------------- *)

let spec_cache_shares () =
  let env = make_env () in
  let cache = Jspec.Spec_cache.create () in
  let shape1 =
    Jspec.Sclass.shape env.pair
      [| Jspec.Sclass.Exact (Jspec.Sclass.leaf env.leaf); Jspec.Sclass.Null_child |]
  in
  (* Structurally identical but separately constructed. *)
  let shape2 =
    Jspec.Sclass.shape env.pair
      [| Jspec.Sclass.Exact (Jspec.Sclass.leaf env.leaf); Jspec.Sclass.Null_child |]
  in
  let different =
    Jspec.Sclass.shape env.pair
      [| Jspec.Sclass.Exact (Jspec.Sclass.leaf ~status:Jspec.Sclass.Clean env.leaf);
         Jspec.Sclass.Null_child |]
  in
  let use shape =
    let (_ : Ickpt_stream.Out_stream.t -> Model.obj -> unit) =
      Jspec.Spec_cache.runner cache shape
    in
    ()
  in
  use shape1;
  use shape2;
  use different;
  check_int "two distinct entries" 2 (Jspec.Spec_cache.size cache);
  check_int "one hit" 1 (Jspec.Spec_cache.hits cache);
  check_int "two misses" 2 (Jspec.Spec_cache.misses cache);
  check_bool "keys distinguish statuses" true
    (Jspec.Spec_cache.shape_key shape1 <> Jspec.Spec_cache.shape_key different);
  check_bool "keys canonical" true
    (Jspec.Spec_cache.shape_key shape1 = Jspec.Spec_cache.shape_key shape2)

let spec_cache_runner_correct () =
  let env = make_env () in
  let cache = Jspec.Spec_cache.create () in
  let shape = Jspec.Sclass.leaf env.leaf in
  let o = Heap.alloc env.heap env.leaf in
  Barrier.set_int o 0 5;
  let d1 = Ickpt_stream.Out_stream.create () in
  Ickpt_core.Checkpointer.incremental d1 o;
  Barrier.touch o;
  let d2 = Ickpt_stream.Out_stream.create () in
  (Jspec.Spec_cache.runner cache shape) d2 o;
  Alcotest.(check string)
    "cached runner output" (Ickpt_stream.Out_stream.contents d1)
    (Ickpt_stream.Out_stream.contents d2)

(* ---- dead code ------------------------------------------------------------ *)

let deadcode_finds_histogram () =
  let p = Minic.Gen.image_program ~n_filters:4 () in
  let env = Minic.Check.check p in
  let dead = Ickpt_analysis.Deadcode.dead_statements env in
  check_bool "found at least one dead pass" true (dead <> []);
  let transformed, removed = Ickpt_analysis.Deadcode.eliminate env in
  check_int "counts agree" (List.length dead) removed;
  (* Behaviour preserved: same checksum, fewer steps. *)
  let before = Minic.Interp.run p in
  let after = Minic.Interp.run transformed in
  check_bool "same result" true
    (before.Minic.Interp.return_value = after.Minic.Interp.return_value);
  check_bool "strictly less work" true
    (after.Minic.Interp.steps < before.Minic.Interp.steps);
  (* And the histogram pass specifically is among the removals. *)
  let src = Minic.Pp.to_string transformed in
  check_bool "histogram call gone from main" true
    (not (Test_util.contains_substring src "compute_histogram();"))

let deadcode_keeps_live_pipeline () =
  let src =
    "int a; int out;\n\
     void produce() { a = 7; }\n\
     void consume() { out = a; }\n\
     int main() { produce(); consume(); return out; }"
  in
  let env = Minic.Check.check (Minic.Parser.parse src) in
  Alcotest.(check (list int))
    "nothing dead" []
    (Ickpt_analysis.Deadcode.dead_statements env)

let deadcode_removes_unread_writer () =
  let src =
    "int a; int junk;\n\
     void pollute() { junk = 3; }\n\
     void produce() { a = 7; }\n\
     int main() { pollute(); produce(); return a; }"
  in
  let env = Minic.Check.check (Minic.Parser.parse src) in
  let dead = Ickpt_analysis.Deadcode.dead_statements env in
  check_int "exactly the polluter" 1 (List.length dead)

let prop_deadcode_preserves_semantics =
  QCheck2.Test.make ~name:"dead-code elimination preserves main's result"
    ~count:25
    QCheck2.Gen.(int_range 1 9)
    (fun n_filters ->
      let p = Minic.Gen.image_program ~width:10 ~height:8 ~n_filters () in
      let env = Minic.Check.check p in
      let transformed, _ = Ickpt_analysis.Deadcode.eliminate env in
      (Minic.Interp.run p).Minic.Interp.return_value
      = (Minic.Interp.run transformed).Minic.Interp.return_value)

let suites =
  [ ( "manager",
      [ Alcotest.test_case "policy and persistence" `Quick
          manager_policy_and_persistence;
        Alcotest.test_case "gc then checkpoint" `Quick
          manager_gc_then_checkpoint;
        Alcotest.test_case "specialized body" `Quick
          manager_checkpoint_with_specialized;
        Alcotest.test_case "resumes sequence" `Quick manager_resumes_sequence;
        QCheck_alcotest.to_alcotest prop_manager_random_ops ] );
    ( "diff",
      [ Alcotest.test_case "detects changes" `Quick diff_detects_changes;
        Alcotest.test_case "empty on identical" `Quick diff_empty_on_identical;
        Alcotest.test_case "iteration delta" `Quick
          diff_incremental_shows_iteration_delta;
        QCheck_alcotest.to_alcotest prop_diff_matches_barrier_trace ] );
    ( "spec-cache",
      [ Alcotest.test_case "shares structurally equal shapes" `Quick
          spec_cache_shares;
        Alcotest.test_case "cached runner correct" `Quick
          spec_cache_runner_correct ] );
    ( "deadcode",
      [ Alcotest.test_case "finds dead histogram pass" `Quick
          deadcode_finds_histogram;
        Alcotest.test_case "keeps live pipeline" `Quick
          deadcode_keeps_live_pipeline;
        Alcotest.test_case "removes unread writer" `Quick
          deadcode_removes_unread_writer;
        QCheck_alcotest.to_alcotest prop_deadcode_preserves_semantics ] ) ]
