(* The content-addressed store end to end: a long PageRank-style run
   checkpointed by the store under a full-every-25 policy, then the two
   things the store buys over replaying a plain chain of segments:

   - dedup: record-aligned chunks are stored once no matter how many
     epochs reference them, so periodic full checkpoints cost little
     extra disk;
   - the epoch index: [Store.restore ~epoch] materializes ANY epoch by
     folding per-object directories from the nearest full — O(live
     objects) — where replaying the chain decodes every record of every
     segment from the newest full up to that epoch.

   The run never converges: a rotating "teleport bonus" keeps a slice of
   pages changing every iteration, so incremental epochs keep arriving
   and the replay-vs-index gap is visible.

   Run with: dune exec examples/dedup_store.exe *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_cas

let n_pages = 500
let n_epochs = 150
let max_links = 4
let damping_milli = 850

(* Page layout: score (millis), out-degree, teleport bonus, then target
   page ids — topology as scalar ids, so the object graph is a forest. *)
let slot_score = 0
let slot_degree = 1
let slot_bonus = 2
let slot_link k = 3 + k

let () =
  let schema = Schema.create () in
  let page_klass =
    Schema.declare schema ~name:"Page" ~ints:(3 + max_links) ~children:0 ()
  in
  let heap = Heap.create schema in
  let rng = Random.State.make [| 20260806 |] in
  let pages = Array.init n_pages (fun _ -> Heap.alloc heap page_klass) in
  Array.iteri
    (fun i p ->
      let degree = 1 + Random.State.int rng max_links in
      Barrier.set_int p slot_score 1000;
      Barrier.set_int p slot_degree degree;
      Barrier.set_int p slot_bonus 0;
      for k = 0 to degree - 1 do
        (* Local links: score ripples stay near their source, so the
           rotating perturbation dirties a contiguous run of records. *)
        let target = (i + 1 + Random.State.int rng 8) mod n_pages in
        Barrier.set_int p (slot_link k) pages.(target).Model.info.Model.id
      done)
    pages;
  let index_of = Hashtbl.create n_pages in
  Array.iteri
    (fun i p -> Hashtbl.replace index_of p.Model.info.Model.id i)
    pages;
  let iterate r =
    let incoming = Array.make n_pages 0 in
    Array.iter
      (fun p ->
        let degree = Barrier.get_int p slot_degree in
        let share = Barrier.get_int p slot_score / degree in
        for k = 0 to degree - 1 do
          let t = Hashtbl.find index_of (Barrier.get_int p (slot_link k)) in
          incoming.(t) <- incoming.(t) + share
        done)
      pages;
    Array.iteri
      (fun i p ->
        let bonus = if i / 50 = r mod (n_pages / 50) then 100 else 0 in
        ignore (Barrier.set_int_if_changed p slot_bonus bonus);
        let fresh =
          1000 - damping_milli
          + (damping_milli * incoming.(i) / 1000)
          + bonus
        in
        (* Quantized scores: diffusion ripples damp out, so pages away
           from the rotating slice stabilize and their records dedup
           across the periodic full checkpoints. *)
        ignore (Barrier.set_int_if_changed p slot_score (fresh / 25 * 25)))
      pages
  in

  (* The store runs the checkpoint policy itself: a full checkpoint every
     25 epochs, incrementals between, each committed as an epoch to the
     path's .pack/.idx pair. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "dedup_store.ckpt"
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ Store.pack_path path; Store.index_path path ];
  let store = Store.open_ ~policy:(Policy.Full_every 25) schema ~path in
  let roots = Array.to_list pages in
  for r = 0 to n_epochs - 1 do
    if r > 0 then iterate r;
    ignore (Store.checkpoint store roots)
  done;

  let s = Store.stats store in
  Format.printf
    "%d epochs of %d pages: %s logical, %s on disk — dedup %.2fx@."
    s.Store.n_epochs n_pages
    (Ickpt_harness.Table.cell_bytes s.Store.logical_bytes)
    (Ickpt_harness.Table.cell_bytes s.Store.physical_bytes)
    s.Store.dedup_ratio;

  (* Where dedup bites: the periodic full checkpoints re-record every
     page, but only the chunks around the currently-perturbed pages are
     new — the rest hit chunks already in the pack. *)
  let full_refs, full_distinct =
    let seen = Hashtbl.create 64 in
    let refs = ref 0 in
    List.iter
      (fun e ->
        match Store.kind_of_epoch store e with
        | Segment.Incremental -> ()
        | Segment.Full ->
            List.iter
              (fun key ->
                incr refs;
                Hashtbl.replace seen key ())
              (Store.entry_at store e).Epoch_index.chunks)
      (Store.epochs store);
    (!refs, Hashtbl.length seen)
  in
  Format.printf
    "full epochs reference %d chunks, only %d distinct on disk (%.1fx \
     shared)@."
    full_refs full_distinct
    (float_of_int full_refs /. float_of_int full_distinct);

  (* Materialize a mid-run epoch both ways and time them. *)
  let target = n_epochs - 10 in
  let segments = ref [] in
  List.iter
    (fun e ->
      if e <= target then segments := Store.segment_of_epoch store e :: !segments)
    (Store.epochs store);
  let replay_suffix =
    (* What a chain replay must decode: the suffix from the newest
       full at or before the target. *)
    let rec cut acc = function
      | [] -> acc
      | (seg : Segment.t) :: older -> (
          match seg.Segment.kind with
          | Segment.Full -> seg :: acc
          | Segment.Incremental -> cut (seg :: acc) older)
    in
    cut [] !segments
  in
  let roots_of_target = Store.roots_of_epoch store target in
  let (_, replayed), replay_s =
    Ickpt_harness.Clock.best_of ~repeats:3 (fun () ->
        Restore.of_segments schema replay_suffix ~roots:roots_of_target)
  in
  let (_, restored), store_s =
    Ickpt_harness.Clock.best_of ~repeats:3 (fun () ->
        Store.restore store ~epoch:target)
  in
  let agree =
    List.for_all2 Ickpt_runtime.Deep_eq.equal replayed restored
  in
  Format.printf
    "restore epoch %d: chain replay %s (%d segments), epoch index %s — \
     %.1fx faster, states agree: %b@."
    target
    (Ickpt_harness.Table.cell_seconds replay_s)
    (List.length replay_suffix)
    (Ickpt_harness.Table.cell_seconds store_s)
    (replay_s /. store_s) agree;

  (* The content-addressed diff only decodes records whose directory
     pointers differ — O(changed chunks), not O(heap). *)
  let changes = Store.diff store (target - 1) target in
  Format.printf "diff %d -> %d: %d change(s)@." (target - 1) target
    (List.length changes);

  (* Retention: keep the last 30 epochs; the floor widens down to the
     nearest full so every survivor stays restorable. *)
  let g = Store.gc store ~retain:(Store.Keep_last 30) in
  let s' = Store.stats store in
  Format.printf
    "gc --keep-last 30: dropped %d epoch(s), reclaimed %s; now %s on disk@."
    g.Store.dropped_epochs
    (Ickpt_harness.Table.cell_bytes g.Store.reclaimed_bytes)
    (Ickpt_harness.Table.cell_bytes s'.Store.physical_bytes);
  (match Store.check store with
  | [] -> Format.printf "store check: consistent@."
  | problems ->
      List.iter (Format.printf "store check ERROR: %s@.") problems;
      exit 1);
  if not agree then exit 1;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ Store.pack_path path; Store.index_path path ]
