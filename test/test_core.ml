open Ickpt_runtime
open Ickpt_core
open Test_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let simple_root env =
  build env
    (Pair
       ( 1, 2,
         Some (Node (3, 4, 5, Some (Leaf 6), Some (Leaf 7), None)),
         Some (Leaf 8) ))

(* -- Checkpointer ------------------------------------------------------- *)

let incremental_fresh_records_all () =
  let env = make_env () in
  let root = simple_root env in
  let stats = Checkpointer.fresh_stats () in
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.incremental ~stats d root;
  check_int "all recorded" (Heap.count env.heap) stats.Checkpointer.recorded;
  check_int "none skipped" 0 stats.Checkpointer.skipped;
  check_int "flags reset" 0 (Heap.modified_count env.heap)

let incremental_idempotent () =
  let env = make_env () in
  let root = simple_root env in
  ignore (checkpoint_body [ root ] ~full:false);
  let stats = Checkpointer.fresh_stats () in
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.incremental ~stats d root;
  check_int "nothing recorded second time" 0 stats.Checkpointer.recorded;
  check_int "empty body" 0 (Ickpt_stream.Out_stream.size d);
  check_int "but everything visited" (Heap.count env.heap)
    stats.Checkpointer.visited

let incremental_records_only_modified () =
  let env = make_env () in
  let root = simple_root env in
  ignore (checkpoint_body [ root ] ~full:false);
  (* Dirty exactly one leaf. *)
  (match root.Model.children.(1) with
  | Some leaf -> Barrier.set_int leaf 0 42
  | None -> Alcotest.fail "missing leaf");
  let stats = Checkpointer.fresh_stats () in
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.incremental ~stats d root;
  check_int "one record" 1 stats.Checkpointer.recorded;
  let records = Restore.records_of_body env.schema
      (Ickpt_stream.Out_stream.contents d) in
  (match records with
  | [ r ] ->
      check_int "right object" 42 r.Restore.rec_ints.(0);
      check_int "right class" env.leaf.Model.kid r.Restore.rec_kid
  | _ -> Alcotest.fail "expected exactly one record")

let full_equals_incremental_on_fresh_tree () =
  let env = make_env () in
  let root = simple_root env in
  let full = checkpoint_body [ root ] ~full:true in
  (* Rebuild an identical fresh tree: ids differ, so compare record multisets
     structurally via a second build in a fresh env. *)
  let env2 = make_env () in
  let root2 = simple_root env2 in
  let incr = checkpoint_body [ root2 ] ~full:false in
  Alcotest.(check string) "identical bytes on a fresh tree" full incr

let full_records_dag_once () =
  let env = make_env () in
  let shared = build env (Leaf 9) in
  let root = Heap.alloc env.heap env.pair in
  root.Model.children.(0) <- Some shared;
  root.Model.children.(1) <- Some shared;
  let stats = Checkpointer.fresh_stats () in
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.full ~stats d root;
  check_int "two objects recorded" 2 stats.Checkpointer.recorded;
  (* Incremental also records the shared child once: the flag acts as the
     visited marker. *)
  Barrier.touch shared;
  Barrier.touch root;
  let stats = Checkpointer.fresh_stats () in
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.incremental ~stats d root;
  check_int "incremental dedup via flag" 2 stats.Checkpointer.recorded

let multi_roots_share_visited () =
  let env = make_env () in
  let shared = build env (Leaf 1) in
  let mk () =
    let o = Heap.alloc env.heap env.pair in
    o.Model.children.(0) <- Some shared;
    o
  in
  let r1 = mk () and r2 = mk () in
  let stats = Checkpointer.fresh_stats () in
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.full_many ~stats d [ r1; r2 ];
  check_int "three objects, shared once" 3 stats.Checkpointer.recorded

(* -- Restore ------------------------------------------------------------ *)

let restore_roundtrip () =
  let env = make_env () in
  let root = simple_root env in
  let body = checkpoint_body [ root ] ~full:true in
  let _heap, roots =
    Restore.of_segments env.schema
      [ { Segment.kind = Segment.Full; seq = 0;
          roots = [ root.Model.info.Model.id ]; body } ]
      ~roots:[ root.Model.info.Model.id ]
  in
  match roots with
  | [ root' ] -> (
      match Deep_eq.compare_graphs root root' with
      | None -> ()
      | Some m -> Alcotest.failf "restored graph differs: %a" Deep_eq.pp_mismatch m)
  | _ -> Alcotest.fail "expected one root"

let restore_unknown_class () =
  let env = make_env () in
  let d = Ickpt_stream.Out_stream.create () in
  Ickpt_stream.Out_stream.write_int d 0;
  (* id *)
  Ickpt_stream.Out_stream.write_int d 999;
  (* bogus kid *)
  match Restore.records_of_body env.schema (Ickpt_stream.Out_stream.contents d) with
  | _ -> Alcotest.fail "unknown class accepted"
  | exception Restore.Error _ -> ()

let restore_dangling_child () =
  let env = make_env () in
  let root = simple_root env in
  let body = checkpoint_body [ root ] ~full:true in
  (* The root has no parent, so drop one leaf instead: re-encode every
     other record and restore from that body. *)
  let records = Restore.records_of_body env.schema body in
  let victim =
    List.find (fun r -> r.Restore.rec_kid = env.leaf.Model.kid) records
  in
  let d = Ickpt_stream.Out_stream.create () in
  List.iter
    (fun r ->
      if r.Restore.rec_id <> victim.Restore.rec_id then begin
        Ickpt_stream.Out_stream.write_int d r.Restore.rec_id;
        Ickpt_stream.Out_stream.write_int d r.Restore.rec_kid;
        Array.iter (Ickpt_stream.Out_stream.write_int d) r.Restore.rec_ints;
        Array.iter (Ickpt_stream.Out_stream.write_int d) r.Restore.rec_child_ids
      end)
    records;
  match
    Restore.of_segments env.schema
      [ { Segment.kind = Segment.Full; seq = 0; roots = [];
          body = Ickpt_stream.Out_stream.contents d } ]
      ~roots:[ root.Model.info.Model.id ]
  with
  | _ -> Alcotest.fail "dangling child accepted"
  | exception Restore.Error _ -> ()

let restore_missing_root () =
  let env = make_env () in
  match Restore.of_segments env.schema [] ~roots:[ 5 ] with
  | _ -> Alcotest.fail "missing root accepted"
  | exception Restore.Error _ -> ()

(* The slot table grows and rehashes past its capacity hint, and keeps
   every id — including ids that agree in their low bits. *)
let restore_slots_grow () =
  let t = Restore.slots 4 in
  let id i = (i lsl 33) + 7 in
  for i = 0 to 9_999 do
    Restore.set_slot t ~id:(id i) ~src:0 ~off:i
  done;
  for i = 0 to 9_999 do
    if i mod 2 = 0 then Restore.set_slot t ~id:(id i) ~src:1 ~off:(-i)
  done;
  let seen = ref 0 in
  Restore.iter_slots t (fun _ _ _ -> incr seen);
  check_int "one slot per id" 10_000 !seen;
  for i = 0 to 9_999 do
    let expected = if i mod 2 = 0 then (1, -i) else (0, i) in
    if Restore.find_slot t (id i) <> Some expected then
      Alcotest.failf "id %d: wrong slot" (id i)
  done;
  check_bool "absent id" true (Restore.find_slot t 8 = None)

let restore_newest_wins () =
  let env = make_env () in
  let root = build env (Leaf 1) in
  let chain = Chain.create env.schema in
  ignore (Chain.take_full chain [ root ]);
  Barrier.set_int root 0 2;
  ignore (Chain.take_incremental chain [ root ]);
  Barrier.set_int root 0 3;
  ignore (Chain.take_incremental chain [ root ]);
  match Chain.recover chain with
  | Ok (_, [ root' ]) -> check_int "latest value" 3 root'.Model.ints.(0)
  | Ok _ -> Alcotest.fail "wrong roots"
  | Error e -> Alcotest.fail e

(* -- Chain -------------------------------------------------------------- *)

let chain_requires_full_base () =
  let env = make_env () in
  let root = build env (Leaf 1) in
  let chain = Chain.create env.schema in
  match Chain.take_incremental chain [ root ] with
  | _ -> Alcotest.fail "baseless incremental accepted"
  | exception Chain.Invalid _ -> ()

let chain_seq_validation () =
  let env = make_env () in
  let chain = Chain.create env.schema in
  (* A full may START a chain at any sequence number (a store resumes from
     its oldest retained epoch after GC) — the chain adopts its seq... *)
  let seg = { Segment.kind = Segment.Full; seq = 5; roots = []; body = "" } in
  Chain.append chain seg;
  Alcotest.(check int) "chain adopts the full's seq" 6 (Chain.next_seq chain);
  (* ...but later segments must stay contiguous. *)
  let gap = { Segment.kind = Segment.Full; seq = 8; roots = []; body = "" } in
  (match Chain.append chain gap with
  | _ -> Alcotest.fail "sequence gap accepted"
  | exception Chain.Invalid _ -> ());
  (* And a negative starting seq is rejected. *)
  let neg = { Segment.kind = Segment.Full; seq = -1; roots = []; body = "" } in
  match Chain.append (Chain.create env.schema) neg with
  | _ -> Alcotest.fail "negative seq accepted"
  | exception Chain.Invalid _ -> ()

let chain_recover_matches_live () =
  let env = make_env () in
  let root = simple_root env in
  let chain = Chain.create env.schema in
  ignore (Chain.take_full chain [ root ]);
  apply_mutations root
    [ { victim = 1; slot = 0; value = 100 };
      { victim = 3; slot = 0; value = -5 } ];
  ignore (Chain.take_incremental chain [ root ]);
  match Chain.recover chain with
  | Ok (_, [ root' ]) -> (
      match Deep_eq.compare_graphs root root' with
      | None -> ()
      | Some m -> Alcotest.failf "recovery differs: %a" Deep_eq.pp_mismatch m)
  | Ok _ -> Alcotest.fail "wrong root count"
  | Error e -> Alcotest.fail e

(* Property (I2): recovery after any mutation script equals the live heap. *)
let prop_chain_equivalence =
  QCheck2.Test.make ~name:"chain recovery == live state (random)" ~count:100
    QCheck2.Gen.(pair tree_gen (list_size (int_range 0 5) (list_size (int_range 0 8) mutation_gen)))
    (fun (t, rounds) ->
      let env = make_env () in
      let root = build env t in
      let chain = Chain.create env.schema in
      ignore (Chain.take_full chain [ root ]);
      List.iter
        (fun muts ->
          apply_mutations root muts;
          ignore (Chain.take_incremental chain [ root ]))
        rounds;
      match Chain.recover chain with
      | Ok (_, [ root' ]) -> Deep_eq.equal root root'
      | _ -> false)

(* -- Storage ------------------------------------------------------------ *)

(* Stable storage is the content-addressed store: a chain's segments
   become its epochs, and it reopens to their intact prefix. *)

let write_chain schema ~path chain =
  let store = Ickpt_cas.Store.open_ schema ~path in
  List.iter
    (fun seg -> ignore (Ickpt_cas.Store.append_segment store seg))
    (Chain.segments chain)

let storage_roundtrip () =
  let env = make_env () in
  let root = simple_root env in
  let chain = Chain.create env.schema in
  ignore (Chain.take_full chain [ root ]);
  Barrier.set_int root 0 11;
  ignore (Chain.take_incremental chain [ root ]);
  let path = temp_store "ickpt_storage_roundtrip" in
  write_chain env.schema ~path chain;
  let store = Ickpt_cas.Store.open_ env.schema ~path in
  Alcotest.(check (list int)) "both segments" [ 0; 1 ]
    (Ickpt_cas.Store.epochs store);
  List.iter
    (fun (seg : Segment.t) ->
      check_bool "segment comes back" true
        (Ickpt_cas.Store.segment_of_epoch store seg.seq = seg))
    (Chain.segments chain);
  (match restore_latest env.schema ~path with
  | Some (_, [ root' ]) -> check_bool "state" true (Deep_eq.equal root root')
  | _ -> Alcotest.fail "recovery failed");
  remove_store path

let storage_append_accumulates () =
  let env = make_env () in
  let root = simple_root env in
  let chain = Chain.create env.schema in
  let t1 = Chain.take_full chain [ root ] in
  Barrier.set_int root 0 5;
  let t2 = Chain.take_incremental chain [ root ] in
  let path = temp_store "ickpt_storage_append" in
  let append seg =
    (* Each append through its own open: a second life continues the
       first one's epochs. *)
    let store = Ickpt_cas.Store.open_ env.schema ~path in
    ignore (Ickpt_cas.Store.append_segment store seg)
  in
  append t1.Chain.segment;
  append t2.Chain.segment;
  let store = Ickpt_cas.Store.open_ env.schema ~path in
  check_int "two epochs" 2 (List.length (Ickpt_cas.Store.epochs store));
  remove_store path

let storage_torn_tail () =
  let env = make_env () in
  let root = simple_root env in
  let chain = Chain.create env.schema in
  ignore (Chain.take_full chain [ root ]);
  Barrier.set_int root 0 5;
  ignore (Chain.take_incremental chain [ root ]);
  let path = temp_store "ickpt_storage_torn" in
  write_chain env.schema ~path chain;
  (* Chop a few bytes off the index: simulates a crash mid-commit. *)
  let index = Ickpt_cas.Store.index_path path in
  Unix.truncate index ((Unix.stat index).Unix.st_size - 3);
  let store = Ickpt_cas.Store.open_ env.schema ~path in
  Alcotest.(check (list int)) "intact prefix survives" [ 0 ]
    (Ickpt_cas.Store.epochs store);
  check_bool "consistent" true (Ickpt_cas.Store.check store = []);
  (* The surviving prefix is still recoverable. *)
  (match restore_latest env.schema ~path with
  | Some _ -> ()
  | None -> Alcotest.fail "no epoch survived");
  remove_store path

let storage_missing_file () =
  let path = temp_store "ickpt_never_written" in
  let store = Ickpt_cas.Store.open_ (make_env ()).schema ~path in
  check_bool "no epochs" true (Ickpt_cas.Store.epochs store = []);
  check_int "no bytes" 0 (Ickpt_cas.Store.stats store).physical_bytes;
  check_bool "opening writes no file" false
    (Sys.file_exists (Ickpt_cas.Store.pack_path path)
    || Sys.file_exists (Ickpt_cas.Store.index_path path))

(* -- Policy -------------------------------------------------------------- *)

let policy_decisions () =
  let env = make_env () in
  let root = build env (Leaf 0) in
  let chain = Chain.create env.schema in
  let is_full p =
    Policy.decide p ~next:(Chain.next chain)
      ~since_full_bytes:(Chain.since_full_bytes chain)
    = Segment.Full
  in
  check_bool "empty chain always full" true (is_full Policy.Incremental_after_base);
  ignore (Chain.take_full chain [ root ]);
  check_bool "always_full stays full" true (is_full Policy.Always_full);
  check_bool "incremental after base" false
    (is_full Policy.Incremental_after_base);
  (* Full_every 3: seqs 0,3,6,... are full. *)
  check_bool "seq 1 incremental" false (is_full (Policy.Full_every 3));
  Barrier.touch root;
  ignore (Chain.take_incremental chain [ root ]);
  Barrier.touch root;
  ignore (Chain.take_incremental chain [ root ]);
  check_bool "seq 3 full" true (is_full (Policy.Full_every 3));
  check_bool "bytes limit 0 triggers full" true
    (is_full (Policy.Chain_bytes_limit 0));
  check_bool "huge limit stays incremental" false
    (is_full (Policy.Chain_bytes_limit max_int))

(* The write path allocates nothing per value: a full take of the
   6,500-object synthetic heap into a buffered stream allocates at most
   one minor word per object (the visited set and the buffer are large
   blocks, allocated on the major heap as they double). *)
let full_take_allocation () =
  let synth =
    Ickpt_synth.Synth.build
      { Ickpt_synth.Synth.default_config with Ickpt_synth.Synth.n_structures = 250 }
  in
  let roots = Ickpt_synth.Synth.roots synth in
  let objects = Heap.count synth.Ickpt_synth.Synth.heap in
  check_int "objects" 6_500 objects;
  let take () =
    let d = Ickpt_stream.Out_stream.create () in
    Checkpointer.full_many d roots;
    d
  in
  ignore (take ());
  let before = Gc.minor_words () in
  let d = take () in
  let words = Gc.minor_words () -. before in
  check_bool "every object recorded" true
    (Ickpt_stream.Out_stream.size d > 20 * objects);
  if words > float_of_int objects then
    Alcotest.failf "a full take of %d objects allocated %.0f minor words"
      objects words

(* A DAG whose ids start at 0 in its own heap: two of them share ids, so a
   take that saw the other's visited set would skip or repeat records. *)
let dag_env () =
  let env = make_env () in
  let shared = build env (Node (1, 2, 3, Some (Leaf 4), None, Some (Leaf 5))) in
  let root = build env (Pair (6, 7, None, Some (Leaf 8))) in
  root.Model.children.(0) <- Some shared;
  let other = build env (Pair (9, 10, None, None)) in
  other.Model.children.(0) <- Some shared;
  other.Model.children.(1) <- Some root;
  (env, [ root; other ])

let full_bytes roots =
  let d = Ickpt_stream.Out_stream.create () in
  Checkpointer.full_many d roots;
  Ickpt_stream.Out_stream.contents d

(* A take nested in another one's [record] (its class's method runs a full
   take of a second heap) gets a visited set of its own: the outer take
   writes the bytes it writes alone, and so does every inner one. *)
let full_many_nested () =
  let outer_env, outer = dag_env () and _, inner = dag_env () in
  let outer_alone = full_bytes outer and inner_alone = full_bytes inner in
  let inner_takes = ref [] in
  let pair = outer_env.pair in
  let record = pair.Model.record_m in
  pair.Model.record_m <-
    (fun o d ->
      inner_takes := full_bytes inner :: !inner_takes;
      record o d);
  let nested =
    Fun.protect
      ~finally:(fun () -> pair.Model.record_m <- record)
      (fun () -> full_bytes outer)
  in
  Alcotest.(check string) "outer take as alone" outer_alone nested;
  check_bool "inner takes ran" true (List.length !inner_takes >= 2);
  List.iter (Alcotest.(check string) "inner take as alone" inner_alone)
    !inner_takes;
  Alcotest.(check string) "the kept table still serves" outer_alone
    (full_bytes outer)

(* Two domains taking their own heaps over and over, each with its own
   kept table, write what a sequential take writes. *)
let full_many_domains () =
  let heaps = [ dag_env (); dag_env () ] in
  let sequential = List.map (fun (_, roots) -> full_bytes roots) heaps in
  let workers =
    List.map
      (fun (_, roots) ->
        Domain.spawn (fun () -> List.init 200 (fun _ -> full_bytes roots)))
      heaps
  in
  List.iter2
    (fun expected worker ->
      List.iter (Alcotest.(check string) "as sequential" expected)
        (Domain.join worker))
    sequential workers

let suites =
  [ ( "checkpointer",
      [ Alcotest.test_case "fresh records all" `Quick incremental_fresh_records_all;
        Alcotest.test_case "idempotent" `Quick incremental_idempotent;
        Alcotest.test_case "records only modified" `Quick
          incremental_records_only_modified;
        Alcotest.test_case "full == incremental on fresh tree" `Quick
          full_equals_incremental_on_fresh_tree;
        Alcotest.test_case "dag recorded once" `Quick full_records_dag_once;
        Alcotest.test_case "full take allocation" `Quick full_take_allocation;
        Alcotest.test_case "nested full take" `Quick full_many_nested;
        Alcotest.test_case "full takes on two domains" `Quick
          full_many_domains;
        Alcotest.test_case "multi roots share visited" `Quick
          multi_roots_share_visited ] );
    ( "restore",
      [ Alcotest.test_case "roundtrip" `Quick restore_roundtrip;
        Alcotest.test_case "unknown class" `Quick restore_unknown_class;
        Alcotest.test_case "dangling child" `Quick restore_dangling_child;
        Alcotest.test_case "missing root" `Quick restore_missing_root;
        Alcotest.test_case "newest wins" `Quick restore_newest_wins;
        Alcotest.test_case "slots grow and rehash" `Quick restore_slots_grow ] );
    ( "chain",
      [ Alcotest.test_case "requires full base" `Quick chain_requires_full_base;
        Alcotest.test_case "seq validation" `Quick chain_seq_validation;
        Alcotest.test_case "recover matches live" `Quick chain_recover_matches_live;
        QCheck_alcotest.to_alcotest prop_chain_equivalence ] );
    ( "storage",
      [ Alcotest.test_case "roundtrip" `Quick storage_roundtrip;
        Alcotest.test_case "append accumulates" `Quick storage_append_accumulates;
        Alcotest.test_case "torn tail" `Quick storage_torn_tail;
        Alcotest.test_case "missing file" `Quick storage_missing_file ] );
    ("policy", [ Alcotest.test_case "decisions" `Quick policy_decisions ]) ]
