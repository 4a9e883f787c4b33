open Ickpt_runtime
open Test_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let schema_layout () =
  let env = make_env () in
  check_int "leaf ints" 1 env.leaf.Model.n_ints;
  check_int "leaf children" 0 env.leaf.Model.n_children;
  check_int "pair ints" 2 env.pair.Model.n_ints;
  check_int "node total ints" 3 env.node.Model.n_ints;
  check_int "node total children" 3 env.node.Model.n_children;
  check_int "node own ints" 1 env.node.Model.own_ints;
  check_int "klass count" 3 (Schema.count env.schema);
  check_bool "find by kid" true
    (Schema.find env.schema env.pair.Model.kid == env.pair);
  check_bool "find by name" true
    (Schema.find_name env.schema "Node" == env.node)

let schema_duplicate () =
  let env = make_env () in
  match Schema.declare env.schema ~name:"Leaf" ~ints:0 ~children:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let schema_iter_order () =
  let env = make_env () in
  let names = ref [] in
  Schema.iter env.schema (fun k -> names := k.Model.kname :: !names);
  Alcotest.(check (list string))
    "declaration order" [ "Leaf"; "Pair"; "Node" ] (List.rev !names)

let alloc_basics () =
  let env = make_env () in
  let a = Heap.alloc env.heap env.leaf in
  let b = Heap.alloc env.heap env.pair in
  check_bool "fresh modified" true a.Model.info.Model.modified;
  check_int "distinct ids" 1 (b.Model.info.Model.id - a.Model.info.Model.id);
  check_int "heap count" 2 (Heap.count env.heap);
  check_bool "find" true
    (match Heap.find env.heap a.Model.info.Model.id with
    | Some o -> o == a
    | None -> false);
  check_bool "find missing" true (Option.is_none (Heap.find env.heap 999));
  check_int "zeroed ints" 0 b.Model.ints.(0);
  check_bool "null children" true (Option.is_none b.Model.children.(0))

let alloc_with_id_checks () =
  let env = make_env () in
  let o = Heap.alloc_with_id env.heap env.leaf ~id:41 ~modified:false in
  check_bool "flag honoured" false o.Model.info.Model.modified;
  check_int "next_id advanced" 42 (Heap.next_id env.heap);
  (match Heap.alloc_with_id env.heap env.leaf ~id:41 ~modified:false with
  | _ -> Alcotest.fail "duplicate id accepted"
  | exception Invalid_argument _ -> ());
  match Heap.alloc_with_id env.heap env.leaf ~id:(-3) ~modified:false with
  | _ -> Alcotest.fail "negative id accepted"
  | exception Invalid_argument _ -> ()

let barrier_sets_flag () =
  let env = make_env () in
  let o = Heap.alloc env.heap env.pair in
  o.Model.info.Model.modified <- false;
  Barrier.set_int o 0 7;
  check_bool "flag set" true o.Model.info.Model.modified;
  check_int "value stored" 7 (Barrier.get_int o 0);
  o.Model.info.Model.modified <- false;
  let changed = Barrier.set_int_if_changed o 0 7 in
  check_bool "unchanged write" false changed;
  check_bool "flag untouched" false o.Model.info.Model.modified;
  let changed = Barrier.set_int_if_changed o 0 8 in
  check_bool "changed write" true changed;
  check_bool "flag set again" true o.Model.info.Model.modified

let barrier_children () =
  let env = make_env () in
  let parent = Heap.alloc env.heap env.pair in
  let child = Heap.alloc env.heap env.leaf in
  parent.Model.info.Model.modified <- false;
  Barrier.set_child parent 0 (Some child);
  check_bool "flag set" true parent.Model.info.Model.modified;
  check_bool "stored" true
    (match Barrier.get_child parent 0 with
    | Some c -> c == child
    | None -> false);
  parent.Model.info.Model.modified <- false;
  check_bool "same child no-op" false
    (Barrier.set_child_if_changed parent 0 (Some child));
  check_bool "null change" true (Barrier.set_child_if_changed parent 0 None)

let barrier_trace () =
  let env = make_env () in
  let o = Heap.alloc env.heap env.pair in
  let hits = ref [] in
  Barrier.with_trace
    (fun o -> hits := o.Model.info.Model.id :: !hits)
    (fun () ->
      Barrier.set_int o 0 1;
      Barrier.touch o);
  check_int "two traced writes" 2 (List.length !hits);
  (* Hook must be uninstalled afterwards. *)
  Barrier.set_int o 1 2;
  check_int "no trace outside" 2 (List.length !hits)

let heap_modified_count () =
  let env = make_env () in
  let a = Heap.alloc env.heap env.leaf in
  let _b = Heap.alloc env.heap env.leaf in
  check_int "both fresh-modified" 2 (Heap.modified_count env.heap);
  Heap.clear_all_modified env.heap;
  check_int "cleared" 0 (Heap.modified_count env.heap);
  Barrier.touch a;
  check_int "one touched" 1 (Heap.modified_count env.heap)

let is_instance_hierarchy () =
  let env = make_env () in
  let n = Heap.alloc env.heap env.node in
  let p = Heap.alloc env.heap env.pair in
  check_bool "node is node" true (Model.is_instance n env.node);
  check_bool "node is pair" true (Model.is_instance n env.pair);
  check_bool "pair not node" false (Model.is_instance p env.node);
  check_bool "pair not leaf" false (Model.is_instance p env.leaf)

let default_record_layout () =
  let env = make_env () in
  let child = Heap.alloc env.heap env.leaf in
  let o = Heap.alloc env.heap env.pair in
  o.Model.ints.(0) <- 10;
  o.Model.ints.(1) <- 20;
  o.Model.children.(0) <- Some child;
  let d = Ickpt_stream.Out_stream.create () in
  Model.record o d;
  let inp = Ickpt_stream.In_stream.of_string (Ickpt_stream.Out_stream.contents d) in
  check_int "int slot 0" 10 (Ickpt_stream.In_stream.read_int inp);
  check_int "int slot 1" 20 (Ickpt_stream.In_stream.read_int inp);
  check_int "child id" child.Model.info.Model.id
    (Ickpt_stream.In_stream.read_int inp);
  check_int "null child" Model.null_id (Ickpt_stream.In_stream.read_int inp);
  check_bool "nothing else" true (Ickpt_stream.In_stream.at_end inp)

let default_fold_visits () =
  let env = make_env () in
  let c1 = Heap.alloc env.heap env.leaf in
  let c2 = Heap.alloc env.heap env.leaf in
  let o = Heap.alloc env.heap env.node in
  o.Model.children.(0) <- Some c1;
  o.Model.children.(2) <- Some c2;
  let visited = ref [] in
  Model.fold o (fun c -> visited := c.Model.info.Model.id :: !visited);
  Alcotest.(check (list int))
    "children in slot order"
    [ c1.Model.info.Model.id; c2.Model.info.Model.id ]
    (List.rev !visited)

let virtual_override () =
  let env = make_env () in
  (* Overriding the vtable slot changes behaviour for all instances: that is
     what makes the calls "virtual" and what specialization removes. *)
  let o = Heap.alloc env.heap env.leaf in
  let saved = env.leaf.Model.record_m in
  env.leaf.Model.record_m <-
    (fun _ d -> Ickpt_stream.Out_stream.write_int d 777);
  let d = Ickpt_stream.Out_stream.create () in
  Model.record o d;
  env.leaf.Model.record_m <- saved;
  let inp = Ickpt_stream.In_stream.of_string (Ickpt_stream.Out_stream.contents d) in
  check_int "override used" 777 (Ickpt_stream.In_stream.read_int inp)

let deep_eq_detects () =
  let env = make_env () in
  let build () =
    build env
      (Pair (1, 2, Some (Leaf 3), Some (Node (4, 5, 6, Some (Leaf 7), None, None))))
  in
  let a = build () in
  let b = build () in
  Alcotest.(check bool) "equal copies" true (Deep_eq.equal a b);
  (* Scalar difference *)
  (match b.Model.children.(0) with
  | Some leaf -> leaf.Model.ints.(0) <- 99
  | None -> Alcotest.fail "missing child");
  (match Deep_eq.compare_graphs a b with
  | Some m ->
      Alcotest.(check bool) "path names the slot" true
        (String.length m.Deep_eq.path > 0)
  | None -> Alcotest.fail "difference not detected");
  (* Structural difference *)
  let c = build () in
  c.Model.children.(1) <- None;
  Alcotest.(check bool) "child removal detected" false (Deep_eq.equal a c)

let deep_eq_shared_substructure () =
  let env = make_env () in
  let shared = build env (Leaf 5) in
  let mk () =
    let o = Heap.alloc env.heap env.pair in
    o.Model.children.(0) <- Some shared;
    o.Model.children.(1) <- Some shared;
    o
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "dag equal" true (Deep_eq.equal a b)

let prop_deep_eq_reflexive =
  QCheck2.Test.make ~name:"deep_eq is reflexive on random graphs" ~count:100
    tree_gen (fun t ->
      let env = make_env () in
      let root = build env t in
      Deep_eq.equal root root)

let prop_build_then_mutate_differs =
  QCheck2.Test.make ~name:"a dirtying int mutation breaks deep equality"
    ~count:100
    QCheck2.Gen.(pair tree_gen mutation_gen)
    (fun (t, m) ->
      let env = make_env () in
      let a = build env t in
      let b = build env t in
      (* Note flags: both copies are fresh so flags agree. *)
      let objs = Array.of_list (all_objects b) in
      let o = objs.(m.victim mod Array.length objs) in
      let n = Array.length o.Model.ints in
      if n = 0 then QCheck2.assume_fail ()
      else begin
        let slot = m.slot mod n in
        let changed = Barrier.set_int_if_changed o slot m.value in
        QCheck2.assume changed;
        not (Deep_eq.equal a b)
      end)

(* The registry after a sweep: survivors keep their ids, their objects and
   their allocation order; the dropped ones are gone and their ids free;
   the counter does not move back. The same holds for a heap a restore
   adopted, whose order is its slot order. *)
let heap_after_sweep () =
  let env = make_env () in
  let heap = env.heap in
  let objs =
    Array.init 200 (fun i ->
        if i mod 7 = 3 then
          Heap.alloc_with_id heap env.pair ~id:((i lsl 40) + 5) ~modified:false
        else Heap.alloc heap env.pair)
  in
  (* Every third object hangs off a chain from objs.(0); the rest are
     garbage. *)
  let kept = List.filter (fun i -> i mod 3 = 0) (List.init 200 Fun.id) in
  let rec link = function
    | a :: (b :: _ as rest) ->
        objs.(a).Model.children.(0) <- Some objs.(b);
        link rest
    | _ -> ()
  in
  link kept;
  let next = Heap.next_id heap in
  check_int "dropped" (200 - List.length kept)
    (Heap.sweep heap ~roots:[ objs.(0) ]);
  check_int "count" (List.length kept) (Heap.count heap);
  let order = ref [] in
  Heap.iter heap (fun o -> order := o :: !order);
  check_bool "iter: the survivors, in allocation order" true
    (List.for_all2 ( == ) (List.rev !order) (List.map (Array.get objs) kept));
  Array.iteri
    (fun i o ->
      let id = o.Model.info.Model.id in
      match Heap.find heap id with
      | Some o' -> check_bool "survivor found" true (i mod 3 = 0 && o' == o)
      | None -> check_bool "dropped not found" true (i mod 3 <> 0))
    objs;
  check_int "counter unchanged" next (Heap.next_id heap);
  let again = objs.(1).Model.info.Model.id in
  let reused = Heap.alloc_with_id heap env.leaf ~id:again ~modified:false in
  check_bool "a dropped id is free again" true
    (match Heap.find heap again with Some o -> o == reused | None -> false);
  check_int "a fresh object after the sweep" next
    (Heap.alloc heap env.leaf).Model.info.Model.id;
  check_int "count after" (List.length kept + 2) (Heap.count heap);
  (* A restored heap adopts the slot table: it iterates in slot order. *)
  let chain = Ickpt_core.Chain.create env.schema in
  let seg = (Ickpt_core.Chain.take_full chain [ objs.(0) ]).segment in
  let restored, _ =
    Ickpt_core.Restore.of_segments env.schema [ seg ] ~roots:seg.roots
  in
  let ids = ref [] in
  Heap.iter restored (fun o -> ids := o.Model.info.Model.id :: !ids);
  Alcotest.(check (list int)) "restored heap: record order"
    (List.map (fun i -> objs.(i).Model.info.Model.id) kept)
    (List.rev !ids);
  check_int "restored next id"
    (1 + List.fold_left max 0 (List.map (fun i -> objs.(i).Model.info.Model.id) kept))
    (Heap.next_id restored)

let suites =
  [ ( "runtime",
      [ Alcotest.test_case "schema layout" `Quick schema_layout;
        Alcotest.test_case "schema duplicate" `Quick schema_duplicate;
        Alcotest.test_case "schema iter order" `Quick schema_iter_order;
        Alcotest.test_case "alloc basics" `Quick alloc_basics;
        Alcotest.test_case "alloc_with_id checks" `Quick alloc_with_id_checks;
        Alcotest.test_case "barrier sets flag" `Quick barrier_sets_flag;
        Alcotest.test_case "barrier children" `Quick barrier_children;
        Alcotest.test_case "barrier trace" `Quick barrier_trace;
        Alcotest.test_case "heap modified count" `Quick heap_modified_count;
        Alcotest.test_case "heap after sweep" `Quick heap_after_sweep;
        Alcotest.test_case "is_instance" `Quick is_instance_hierarchy;
        Alcotest.test_case "default record layout" `Quick default_record_layout;
        Alcotest.test_case "default fold visits" `Quick default_fold_visits;
        Alcotest.test_case "virtual override" `Quick virtual_override;
        Alcotest.test_case "deep_eq detects" `Quick deep_eq_detects;
        Alcotest.test_case "deep_eq shared substructure" `Quick
          deep_eq_shared_substructure;
        QCheck_alcotest.to_alcotest prop_deep_eq_reflexive;
        QCheck_alcotest.to_alcotest prop_build_then_mutate_differs ] ) ]
