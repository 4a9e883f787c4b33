open Ickpt_core

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let pack_path path = path ^ ".pack"

let index_path path = path ^ ".idx"

type collision = Epochs.collision = {
  col_epoch : int;
  col_content_key : int;
  col_stored_key : int;
  col_attempt : int;
}

type t = {
  vfs : Vfs.t;
  root : string;
  records_per_chunk : int;
  policy : Policy.t;
  pack : Pack.t;
  chain : Epochs.chain;
  mutable index_bytes : int;  (* the index file's length *)
  mutable collided : collision list;  (* newest first; this session only *)
  mutable gc_unfinished : bool;
      (* a gc committed (its index is live) but its pack is not yet in
         place and in the table *)
}

let path t = t.root

let schema t = Epochs.schema t.chain

let entries t = Epochs.entries t.chain

(* ------------------------------------------------------------------ *)
(* Open: sweep, truncate, validate.                                    *)

let open_ ?(vfs = Vfs.real) ?(records_per_chunk = Chunk.default_records_per_chunk)
    ?(policy = Policy.Incremental_after_base) schema ~path:root =
  if records_per_chunk < 1 then invalid_arg "Store.open_: records_per_chunk";
  let pack_file = pack_path root and index_file = index_path root in
  (* The index is read first: an older format is refused before anything
     is swept or cut, and its entries locate every committed chunk. *)
  let loaded =
    try Epochs.load Epochs.plain vfs index_file
    with Epoch_index.Unsupported_version msg -> raise (Error msg)
  in
  (* A gc stages the index, then the pack, and commits by renaming the
     index over the live one, then the pack. A staged index means the gc
     did not commit: both temps are dropped, the pack's first, so that a
     crash in between cannot leave a staged pack alone. A staged pack
     alone means the new index is live: the gc is finished. *)
  let pack_tmp = Vfs.temp_of pack_file and index_tmp = Vfs.temp_of index_file in
  if vfs.Vfs.exists index_tmp then begin
    if vfs.Vfs.exists pack_tmp then vfs.Vfs.remove pack_tmp;
    vfs.Vfs.remove index_tmp
  end
  else if vfs.Vfs.exists pack_tmp then
    vfs.Vfs.rename ~src:pack_tmp ~dst:pack_file;
  let pack = Pack.open_ ~vfs pack_file in
  let entries, index_bytes =
    List.hd (Epochs.recover Epochs.plain vfs pack [ loaded ])
  in
  { vfs;
    root;
    records_per_chunk;
    policy;
    pack;
    chain = Epochs.chain ~file:index_file ~id:0 schema entries;
    index_bytes;
    collided = [];
    gc_unfinished = false }

(* The second half of a committed gc, as [open_] finishes it: the staged
   pack is renamed into place, then the table is rebuilt from the new
   entries. Until it has run, the pack is not touched: every use of it
   comes through [pack], which runs it first, so a failure here is retried
   on the next use. *)
let finish_gc t =
  let pack_file = pack_path t.root in
  let pack_tmp = Vfs.temp_of pack_file in
  if t.vfs.Vfs.exists pack_tmp then t.vfs.Vfs.rename ~src:pack_tmp ~dst:pack_file;
  ignore (Pack.reload t.pack (entries t) : int option list);
  t.gc_unfinished <- false

let pack t =
  if t.gc_unfinished then finish_gc t;
  t.pack

(* ------------------------------------------------------------------ *)
(* Lookup helpers.                                                     *)

let epochs t = List.map (fun (e : Epoch_index.entry) -> e.epoch) (entries t)

let latest_epoch t = Epoch_index.newest (entries t)

let entry_at t epoch =
  match
    List.find_opt (fun (e : Epoch_index.entry) -> e.epoch = epoch) (entries t)
  with
  | Some e -> e
  | None -> error "unknown epoch %d" epoch

let kind_of_epoch t epoch = (entry_at t epoch).kind

let roots_of_epoch t epoch = (entry_at t epoch).roots

(* ------------------------------------------------------------------ *)
(* Appending.                                                          *)

type append_stats = {
  chunks_total : int;
  chunks_new : int;
  chunks_salted : int;
  bytes_logical : int;
  bytes_written : int;
}

let append_segment t (seg : Segment.t) =
  let pack = pack t in
  (* The body is walked before the segment is admitted or anything
     written: a malformed one is refused here. *)
  let it = Epochs.item t.chain ~records_per_chunk:t.records_per_chunk seg in
  Option.iter (error "%s") (Epochs.admit t.chain seg);
  let c = Epochs.commit Epochs.plain t.vfs ~path:(index_path t.root) pack [ it ] in
  t.index_bytes <- t.index_bytes + c.index_bytes;
  t.collided <- List.rev_append c.collisions t.collided;
  { chunks_total =
      List.fold_left
        (fun n (e : Epoch_index.entry) -> n + List.length e.chunks)
        0 c.entries;
    chunks_new = c.fresh_chunks;
    chunks_salted = List.length c.collisions;
    bytes_logical = String.length seg.body;
    bytes_written = c.bytes_written }

let collisions t = List.rev t.collided

let take t roots write =
  (* A gc's unfinished half runs before the take clears a modified flag:
     if it fails again, no segment is lost. *)
  ignore (pack t : Pack.t);
  let seg = Epochs.take t.policy t.chain write roots in
  ignore (append_segment t seg : append_stats);
  seg.seq

let checkpoint t roots = take t roots (Chain.generic ?stats:None)

let checkpoint_with t roots ~body =
  take t roots (function
    | Segment.Full -> Chain.generic Segment.Full
    | Segment.Incremental -> body)

(* ------------------------------------------------------------------ *)
(* Reading.                                                            *)

let segment_of_epoch t epoch = Epochs.segment (schema t) (pack t) (entry_at t epoch)

let restore t ~epoch =
  ignore (entry_at t epoch : Epoch_index.entry);
  Dir.restore (pack t) (schema t) ~entries:(entries t) ~epoch

(* ------------------------------------------------------------------ *)
(* Diff.                                                               *)

let diff t a b =
  ignore (entry_at t a : Epoch_index.entry);
  ignore (entry_at t b : Epoch_index.entry);
  let pack = pack t in
  let da = Dir.fold_in pack ~entries:(entries t) ~epoch:a
  and db = Dir.fold_in pack ~entries:(entries t) ~epoch:b in
  let record = Dir.record (Dir.reader pack (schema t)) in
  let changes = ref [] in
  Dir.iter da (fun id ptr ->
      match Dir.find db id with
      | None -> changes := Diff.Removed id :: !changes
      | Some ptr' when ptr = ptr' ->
          (* Same chunk key and offset: the record bytes are identical by
             content-addressing — no decode needed. This is what makes the
             diff O(changed entries). *)
          ()
      | Some ptr' ->
          changes :=
            List.rev_append
              (Diff.record_changes id ~before:(record ptr) ~after:(record ptr'))
              !changes);
  Dir.iter db (fun id _ ->
      if Dir.find da id = None then changes := Diff.Added id :: !changes);
  Diff.sort !changes

(* ------------------------------------------------------------------ *)
(* Space: refcounts, GC, stats, check.                                 *)

let refcounts t =
  let keys = Pack.keys (pack t) in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun k -> Hashtbl.replace counts k 0) keys;
  List.iter
    (fun (e : Epoch_index.entry) ->
      (* A chunk referenced twice by one epoch still counts that epoch
         once per reference site — refcounts answer "how many references
         keep this chunk alive". *)
      List.iter
        (fun k ->
          Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        e.chunks)
    (entries t);
  List.map (fun k -> (k, Hashtbl.find counts k)) keys

type retention = Keep_all | Keep_last of int | Keep_from of int

type gc_stats = {
  dropped_epochs : int;
  dropped_chunks : int;
  reclaimed_bytes : int;
}

let no_gc = { dropped_epochs = 0; dropped_chunks = 0; reclaimed_bytes = 0 }

let gc t ~retain =
  let pack = pack t in
  match entries t with
  | [] -> no_gc
  | oldest :: _ ->
      let latest = Option.get (latest_epoch t) in
      let floor =
        match retain with
        | Keep_all -> oldest.Epoch_index.epoch
        | Keep_last n ->
            if n < 1 then error "gc: Keep_last %d (need >= 1)" n;
            max oldest.Epoch_index.epoch (latest - n + 1)
        | Keep_from e -> max oldest.Epoch_index.epoch (min e latest)
      in
      (* Widen down to the nearest full epoch so every retained epoch keeps
         a restorable base. *)
      let all = entries t in
      let base = Epoch_index.newest_full all ~epoch:floor in
      let kept =
        List.filter (fun (e : Epoch_index.entry) -> e.epoch >= base) all
      in
      let kept_keys : (int, unit) Hashtbl.t = Hashtbl.create 256 in
      List.iter
        (fun (e : Epoch_index.entry) ->
          List.iter (fun k -> Hashtbl.replace kept_keys k ()) e.chunks)
        kept;
      let dropped_chunks =
        List.length (List.filter (fun k -> not (Hashtbl.mem kept_keys k)) (Pack.keys pack))
      in
      let dropped_epochs = List.length all - List.length kept in
      if dropped_epochs = 0 && dropped_chunks = 0 then no_gc
      else begin
        let old_bytes = Pack.physical_bytes pack in
        let index_file = index_path t.root in
        (* The rewritten pack holds the kept chunks in first-reference
           order, each located on the first kept entry naming it. *)
        let kept, groups = Epochs.relocate pack kept in
        (* Commit order matters. The index is staged first and renamed
           first: its rename is the commit point, and a staged pack alone
           tells the next open to finish the gc (see [open_]). *)
        let idx_tmp, index_bytes =
          Epoch_index.write_staged t.vfs ~path:index_file kept
        in
        ignore (Pack.stage_rewrite pack groups : string);
        (* The rename has landed once the staged index is gone, even if
           the call raised: from then on the session is on the new
           entries, and the pack's half is [finish_gc]'s, now or on the
           next use of the pack. *)
        let failed =
          match t.vfs.Vfs.rename ~src:idx_tmp ~dst:index_file with
          | () -> None
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              if t.vfs.Vfs.exists idx_tmp then Printexc.raise_with_backtrace e bt;
              Some (e, bt)
        in
        Epochs.rebase t.chain kept;
        t.index_bytes <- index_bytes;
        t.gc_unfinished <- true;
        finish_gc t;
        Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failed;
        { dropped_epochs;
          dropped_chunks;
          reclaimed_bytes = old_bytes - Pack.physical_bytes pack }
      end

type stats = {
  n_epochs : int;
  n_chunks : int;
  logical_bytes : int;
  physical_bytes : int;
  dedup_ratio : float;
  pack_cut_bytes : int;
}

let stats t =
  let pack = pack t in
  let logical_bytes = Epochs.logical_bytes (entries t) in
  let pack_bytes = Pack.physical_bytes pack in
  { n_epochs = List.length (entries t);
    n_chunks = Pack.length pack;
    logical_bytes;
    physical_bytes = pack_bytes + t.index_bytes;
    dedup_ratio =
      (if pack_bytes = 0 then 1.0
       else float_of_int logical_bytes /. float_of_int pack_bytes);
    pack_cut_bytes = Pack.cut_bytes pack }

let salted_chunks t =
  let pack = pack t in
  List.filter_map
    (fun k ->
      let c = Chunk.of_string (Pack.read pack k) in
      if c.key = k then None
      else
        let rec find attempt =
          if attempt > Chunk.max_salt_attempts then None
          else if Chunk.salted_key c ~attempt = k then Some (k, attempt)
          else find (attempt + 1)
        in
        find 1)
    (Pack.keys pack)

let check t = Epochs.check Epochs.plain (pack t) ~who:(fun _ -> None) (entries t)
