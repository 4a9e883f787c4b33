(* A second domain for the checkpointing API: an iterative fixed-point
   graph computation (PageRank in integer arithmetic) that checkpoints
   after every iteration into a store.

   Two things worth noticing:

   - The link topology is cyclic, which the checkpointable object model
     does not allow for child pointers (the paper's no-cycles assumption).
     The standard move is the one checkpoint records themselves use:
     represent references as scalar ids. Pages are flat checkpointable
     objects; topology lives in int fields; the object graph seen by the
     checkpointer is a forest.

   - Scores are written through change-detecting barriers, so as the
     fixed point converges, fewer pages are dirty and the incremental
     checkpoints shrink — the same dynamics as the paper's analysis
     engine.

   Run with: dune exec examples/pagerank.exe *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_cas

let n_pages = 2_000

let max_links = 4

let damping_milli = 850 (* 0.85 in fixed-point millis *)

(* Page layout: ints.(0) = score (millis), ints.(1) = out-degree,
   ints.(2..2+max_links-1) = target page ids. *)
let slot_score = 0

let slot_degree = 1

let slot_link k = 2 + k

let () =
  let schema = Schema.create () in
  let page_klass =
    Schema.declare schema ~name:"Page" ~ints:(2 + max_links) ~children:0 ()
  in
  let heap = Heap.create schema in
  let rng = Random.State.make [| 20260705 |] in
  let pages =
    Array.init n_pages (fun _ -> Heap.alloc heap page_klass)
  in
  Array.iteri
    (fun i p ->
      let degree = 1 + Random.State.int rng max_links in
      Barrier.set_int p slot_score 1000;
      Barrier.set_int p slot_degree degree;
      for k = 0 to degree - 1 do
        (* Mix of local and long-range links, self-links excluded. *)
        let target =
          if Random.State.bool rng then (i + 1 + Random.State.int rng 10) mod n_pages
          else Random.State.int rng n_pages
        in
        Barrier.set_int p (slot_link k)
          (pages.(if target = i then (i + 1) mod n_pages else target)
             .Model.info.Model.id)
      done)
    pages;
  let by_id = Hashtbl.create n_pages in
  Array.iter (fun p -> Hashtbl.replace by_id p.Model.info.Model.id p) pages;

  let path = Filename.concat (Filename.get_temp_dir_name ()) "pagerank.ckpt" in
  let files = [ Store.pack_path path; Store.index_path path ] in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files;
  let store = Store.open_ ~policy:(Policy.Full_every 8) schema ~path in
  let roots = Array.to_list pages in

  (* The specialized checkpoint routine for a Page: a tracked leaf — no
     dispatch, one test, a fixed run of writes. One shared plan serves all
     pages (Spec_cache would share it across shapes too). *)
  let plan = Jspec.Pe.specialize (Jspec.Sclass.leaf page_klass) in
  let runner = Jspec.Compile.residual plan in

  (* One synchronous sweep: every page's new score from its in-neighbours.
     Incoming contributions are accumulated in one pass over out-links. *)
  let incoming = Array.make n_pages 0 in
  let index_of = Hashtbl.create n_pages in
  Array.iteri (fun i p -> Hashtbl.replace index_of p.Model.info.Model.id i) pages;
  let iterate () =
    Array.fill incoming 0 n_pages 0;
    Array.iter
      (fun p ->
        let degree = Barrier.get_int p slot_degree in
        let share = Barrier.get_int p slot_score / degree in
        for k = 0 to degree - 1 do
          let target = Hashtbl.find index_of (Barrier.get_int p (slot_link k)) in
          incoming.(target) <- incoming.(target) + share
        done)
      pages;
    let changed = ref 0 in
    Array.iteri
      (fun i p ->
        let fresh =
          1000 - damping_milli + (damping_milli * incoming.(i) / 1000)
        in
        if Barrier.set_int_if_changed p slot_score fresh then incr changed)
      pages;
    !changed
  in

  Format.printf "PageRank over %d pages, checkpoint per iteration:@." n_pages;
  let iteration = ref 0 in
  let continue = ref true in
  while !continue && !iteration < 60 do
    incr iteration;
    let changed = iterate () in
    let epoch =
      Store.checkpoint_with store roots ~body:(fun d roots ->
          List.iter (fun r -> runner d r) roots)
    in
    if !iteration <= 6 || changed = 0 then
      Format.printf "  iter %2d: %4d pages changed, checkpoint %s (%s)@."
        !iteration changed
        (Ickpt_harness.Table.cell_bytes
           (Segment.body_size (Store.segment_of_epoch store epoch)))
        (Format.asprintf "%a" Segment.pp_kind
           (Store.kind_of_epoch store epoch));
    if changed = 0 then continue := false
  done;

  (* Restore the newest epoch into a fresh heap and verify the fixed point
     survived. *)
  let heap', roots' =
    Store.restore store ~epoch:(Option.get (Store.latest_epoch store))
  in
  Format.printf "recovered %d pages from %s@." (Heap.count heap') path;
  let sum =
    List.fold_left (fun acc p -> acc + p.Model.ints.(slot_score)) 0 roots'
  in
  let live_sum =
    Array.fold_left (fun acc p -> acc + p.Model.ints.(slot_score)) 0 pages
  in
  Format.printf "total mass: live %d vs recovered %d (equal: %b)@."
    live_sum sum (sum = live_sum);
  if sum <> live_sum then begin
    List.iter Sys.remove files;
    exit 1
  end;
  (* Top page by rank, from the recovered state. *)
  let best =
    List.fold_left
      (fun acc p ->
        if p.Model.ints.(slot_score) > acc.Model.ints.(slot_score) then p
        else acc)
      (List.hd roots') roots'
  in
  Format.printf "highest-ranked page: #%d with score %d/1000@."
    best.Model.info.Model.id
    best.Model.ints.(slot_score);
  ignore by_id;
  List.iter Sys.remove files
