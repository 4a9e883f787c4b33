(* Quickstart: declare checkpointable classes, build an object graph, take
   full and incremental checkpoints, mutate, persist them to a store and
   recover.

   Run with: dune exec examples/quickstart.exe *)

open Ickpt_runtime
open Ickpt_core

let () =
  (* 1. Declare the class schema. A "Point" has two scalar fields; a
     "Segment" holds two Points; a "Path" chains Segments. *)
  let schema = Schema.create () in
  let point = Schema.declare schema ~name:"Point" ~ints:2 ~children:0 () in
  let segment = Schema.declare schema ~name:"Segment" ~ints:0 ~children:2 () in
  let path = Schema.declare schema ~name:"Path" ~ints:1 ~children:2 () in

  (* 2. Build a small object graph on a heap. *)
  let heap = Heap.create schema in
  let mk_point x y =
    let p = Heap.alloc heap point in
    Barrier.set_int p 0 x;
    Barrier.set_int p 1 y;
    p
  in
  let mk_segment a b =
    let s = Heap.alloc heap segment in
    Barrier.set_child s 0 (Some a);
    Barrier.set_child s 1 (Some b);
    s
  in
  let p1 = mk_point 0 0 and p2 = mk_point 3 4 and p3 = mk_point 6 0 in
  let root = Heap.alloc heap path in
  Barrier.set_int root 0 42;
  Barrier.set_child root 0 (Some (mk_segment p1 p2));
  Barrier.set_child root 1 (Some (mk_segment p2 p3));
  Format.printf "built %d objects@." (Heap.count heap);

  (* 3. Take the base (full) checkpoint — everything is fresh. *)
  let chain = Chain.create schema in
  let base = Chain.take_full chain [ root ] in
  Format.printf "full checkpoint: %d objects, %d bytes@."
    base.Chain.stats.Checkpointer.recorded
    (Segment.body_size base.Chain.segment);

  (* 4. Mutate one point; the write barrier marks it modified. *)
  Barrier.set_int p2 1 99;
  Format.printf "after mutation, %d object(s) dirty@." (Heap.modified_count heap);

  (* 5. The incremental checkpoint records only the modified object. *)
  let incr = Chain.take_incremental chain [ root ] in
  Format.printf "incremental checkpoint: %d object(s), %d bytes@."
    incr.Chain.stats.Checkpointer.recorded
    (Segment.body_size incr.Chain.segment);

  (* 6. Persist the chain as a store (a deduplicating chunk pack plus an
     epoch index, at file.pack and file.idx) and restore its newest epoch
     into a fresh heap. *)
  let file = Filename.temp_file "quickstart" ".ckpt" in
  let store = Ickpt_cas.Store.open_ schema ~path:file in
  List.iter
    (fun seg -> ignore (Ickpt_cas.Store.append_segment store seg))
    (Chain.segments chain);
  let epoch = Option.get (Ickpt_cas.Store.latest_epoch store) in
  (match Ickpt_cas.Store.restore store ~epoch with
  | heap', [ root' ] ->
      Format.printf "restored %d objects from %s (epoch %d)@."
        (Heap.count heap') file epoch;
      Format.printf "recovered graph equals live graph: %b@."
        (Deep_eq.equal root root')
  | _ -> assert false);
  List.iter Sys.remove
    [ file; Ickpt_cas.Store.pack_path file; Ickpt_cas.Store.index_path file ];

  (* 7. Specialize checkpointing for the Path structure: every class is
     statically known, so dispatch disappears; and if we promise the
     Points of the first segment never change after setup, their tests
     and traversal disappear too. *)
  let open Jspec in
  let point_shape status = Sclass.leaf ~status point in
  let seg_shape status =
    Sclass.shape ~status:Sclass.Clean segment
      [| Sclass.Exact (point_shape status); Sclass.Exact (point_shape status) |]
  in
  let shape =
    Sclass.shape path
      [| Sclass.Exact (seg_shape Sclass.Clean);
         Sclass.Exact (seg_shape Sclass.Tracked) |]
  in
  let plan = Pe.specialize shape in
  Format.printf "@.specialized checkpoint routine (Java-style, cf. paper Fig. 5):@.%s@."
    (Java_pp.to_string plan);
  let runner = Compile.residual plan in
  Barrier.set_int p3 0 7;
  let d = Ickpt_stream.Out_stream.create () in
  runner d root;
  Format.printf "specialized incremental checkpoint wrote %d bytes@."
    (Ickpt_stream.Out_stream.size d)
