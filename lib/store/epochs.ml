open Ickpt_core
open Ickpt_stream

type collision = {
  col_epoch : int;
  col_content_key : int;
  col_stored_key : int;
  col_attempt : int;
}

(* ------------------------------------------------------------------ *)
(* Staging.                                                            *)

type item = {
  chain : int;
  kind : Segment.kind;
  epoch : int;
  roots : int list;
  chunks : Chunk.t list;
}

(* Resolve a batch's chunks against the pack in one {!Pack.resolve}: a key
   hit is only a duplicate if the bytes agree, and a genuine collision
   degrades to a salted rehash instead of refusing the epoch. Returns, per
   item, its chunk keys and its fresh chunks as [(chunk index, chunk)] —
   the chunks it is the first to reference — and the collisions in batch
   order. *)
let stage pack items =
  let resolved =
    Array.of_list
      (Pack.resolve pack (List.concat_map (fun it -> it.chunks) items))
  in
  let next = ref 0 and collisions = ref [] in
  let staged =
    List.map
      (fun it ->
        let fresh = ref [] in
        let keys =
          List.mapi
            (fun i (c : Chunk.t) ->
              incr next;
              match resolved.(!next - 1) with
              | Pack.Dup key -> key
              | Pack.Fresh { key; attempt } ->
                  fresh := (i, c) :: !fresh;
                  if attempt > 0 then
                    collisions :=
                      { col_epoch = it.epoch;
                        col_content_key = c.key;
                        col_stored_key = key;
                        col_attempt = attempt }
                      :: !collisions;
                  key)
            it.chunks
        in
        (keys, List.rev !fresh))
      items
  in
  (staged, List.rev !collisions)

(* ------------------------------------------------------------------ *)
(* Chain rules.                                                        *)

let newest entries =
  List.fold_left (fun _ (e : Epoch_index.entry) -> Some e.epoch) None entries

let newest_full entries ~epoch =
  List.fold_left
    (fun acc (e : Epoch_index.entry) ->
      if e.kind = Segment.Full && e.epoch <= epoch then e.epoch else acc)
    (match entries with e :: _ -> e.Epoch_index.epoch | [] -> epoch)
    entries

let since_full entries ~epoch =
  let base = newest_full entries ~epoch in
  List.filter
    (fun (e : Epoch_index.entry) -> e.epoch >= base && e.epoch <= epoch)
    entries

type 'a index = {
  decode : (int -> int list) -> string -> pos:int -> 'a * int;
  encode : Out_stream.t -> 'a -> unit;
  chain : 'a -> int;
  entry : 'a -> Epoch_index.entry;
  make : int -> Epoch_index.entry -> 'a;
}

let plain =
  { decode = (fun prev s ~pos -> Epoch_index.decode ~prev:(prev 0) s ~pos);
    encode = Epoch_index.encode;
    chain = (fun _ -> 0);
    entry = Fun.id;
    make = (fun _ e -> e) }

let mux =
  { decode = (fun prev s ~pos -> Epoch_index.decode_mux ~prev s ~pos);
    encode = Epoch_index.encode_mux;
    chain = (fun m -> m.Epoch_index.m_tenant);
    entry = (fun m -> m.Epoch_index.m_entry);
    make = (fun m_tenant m_entry -> { Epoch_index.m_tenant; m_entry }) }

(* Longest valid prefix of one file's [(item, end offset)]s, given each
   entry's located end ([None]: its located chunks do not decode), and the
   largest located end it keeps: per chain, the oldest epoch full and the
   rest contiguous, every entry resolving against the pack — its located
   chunks inside the pack file and every chunk it names located. Its
   directory is not decoded here: an offset past its chunk is Dir's error
   at fold time, and check's finding. Crash-consistent operation never
   violates this (the pack is synced before the index), so rejections are
   defensive — but one cuts the whole file there, which keeps every chain
   in it a committed prefix. *)
let valid_prefix idx pack items ends =
  let next : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let size = Pack.physical_bytes pack in
  let rec go acc committed items ends =
    let cut () = (List.rev acc, committed) in
    match (items, ends) with
    | ((x, _) as item) :: items, Some stop :: ends ->
        let e = idx.entry x in
        if
          Chain.continuity ~next:(Hashtbl.find_opt next (idx.chain x)) e.kind
            ~epoch:e.epoch
          = None
          && stop <= size
          && List.for_all (Pack.mem pack) e.chunks
        then begin
          Hashtbl.replace next (idx.chain x) (e.epoch + 1);
          go (item :: acc) (max committed stop) items ends
        end
        else cut ()
    | _ -> cut ()
  in
  go [] 0 items ends

type 'a loaded = {
  file : string;
  size : int;
  items : ('a * int) list;  (* intact items, each with its end offset *)
}

(* Each entry's roots are decoded against the previous entry of its chain,
   so a chain whose roots do not change holds one list. *)
let load idx vfs path =
  let raw = Vfs.contents vfs path in
  let roots : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let prev chain = Option.value (Hashtbl.find_opt roots chain) ~default:[] in
  let items, valid =
    In_stream.intact_prefix
      (fun s ~pos ->
        let x, stop = idx.decode prev s ~pos in
        Hashtbl.replace roots (idx.chain x) (idx.entry x).roots;
        ((x, stop), stop))
      raw
  in
  if valid = 0 then Epoch_index.reject_older ~path raw;
  { file = path; size = String.length raw; items }

let rec drop n l = match l with _ :: l when n > 0 -> drop (n - 1) l | _ -> l

(* The pack's table is built from every file's entries at once: a chain
   may dedup against a chunk another file's entry located. Building it
   yields every entry's located end, which judges the entry and sizes the
   pack. An entry cut from one file may have located a chunk an entry of
   another names, so the table is rebuilt from what was kept until a pass
   cuts nothing. *)
let recover idx vfs pack loaded =
  let rec settle files =
    let ends =
      ref
        (Pack.reload pack
           (List.concat_map (List.map (fun (x, _) -> idx.entry x)) files))
    in
    let kept =
      List.map
        (fun items ->
          let k = valid_prefix idx pack items !ends in
          ends := drop (List.length items) !ends;
          k)
        files
    in
    if List.for_all2 (fun (a, _) b -> List.compare_lengths a b = 0) kept files
    then kept
    else settle (List.map fst kept)
  in
  let kept = settle (List.map (fun l -> l.items) loaded) in
  Pack.cut pack ~committed:(List.fold_left (fun n (_, c) -> max n c) 0 kept);
  List.map2
    (fun l (items, _) ->
      let len = List.fold_left (fun _ (_, stop) -> stop) 0 items in
      if len < l.size then vfs.Vfs.truncate l.file ~len;
      (List.map fst items, len))
    loaded kept

let check_entry pack (e : Epoch_index.entry) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let hex = Hash64.to_hex in
  (match Epoch_index.located_end e with
  | stop when stop > Pack.physical_bytes pack ->
      err "locates chunks up to %d, past the pack's end (%d)" stop
        (Pack.physical_bytes pack)
  | _ -> ()
  | exception In_stream.Corrupt msg -> err "%s" msg);
  let data =
    Array.of_list
      (List.map
         (fun k ->
           match Pack.read pack k with
           | exception Not_found ->
               err "references missing chunk %s" (hex k);
               None
           | exception In_stream.Corrupt msg ->
               err "%s" msg;
               None
           | d ->
               if not (Chunk.key_matches k (Chunk.of_string d)) then
                 err "chunk %s content does not match its key" (hex k);
               Some d)
         e.chunks)
  in
  let records = ref [] in
  (match
     Epoch_index.iter_dir e (fun id c off -> records := (id, c, off) :: !records)
   with
  | () -> ()
  | exception In_stream.Corrupt msg ->
      records := [];
      err "%s" msg);
  List.iter
    (fun (d_id, d_chunk, d_off) ->
      match data.(d_chunk) with
      | None -> ()
      | Some d when d_off < 0 || d_off >= String.length d ->
          err "record %d offset %d out of range" d_id d_off
      | Some d -> (
          let inp = In_stream.of_string_at d ~pos:d_off in
          match In_stream.read_int inp with
          | id when id <> d_id ->
              err "directory entry for object %d lands on record %d" d_id id
          | _ -> ()
          | exception In_stream.Corrupt _ ->
              err "record %d at offset %d is truncated" d_id d_off))
    (List.rev !records);
  List.rev !errs

let check idx pack ~who items =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let next : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun x ->
      let e = idx.entry x in
      let who sep = match who x with None -> "" | Some w -> w ^ sep in
      (match
         Chain.continuity ~next:(Hashtbl.find_opt next (idx.chain x)) e.kind
           ~epoch:e.epoch
       with
      | None -> ()
      | Some Chain.Not_full ->
          err "%soldest epoch %d is not full" (who ": ") e.epoch
      | Some Chain.Negative ->
          err "%soldest epoch %d is negative" (who ": ") e.epoch
      | Some (Chain.Gap n) ->
          err "%sepoch %d follows %d" (who ": ") e.epoch (n - 1));
      Hashtbl.replace next (idx.chain x) (e.epoch + 1);
      List.iter (err "%sepoch %d: %s" (who " ") e.epoch) (check_entry pack e))
    items;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Committing.                                                         *)

type 'a committed = {
  entries : 'a list;
  collisions : collision list;
  fresh_chunks : int;
  bytes_written : int;
  index_bytes : int;
}

let commit idx vfs ~path pack items =
  let staged, collisions = stage pack items in
  let start =
    Pack.append pack
      (List.concat_map (fun (_, fresh) -> List.map snd fresh) staged)
  in
  (* Each entry locates its fresh chunks from where the previous entry's
     ended: the append wrote them back to back, in batch order. *)
  let stop, rev_entries =
    List.fold_left2
      (fun (at, acc) (it : item) (chunks, fresh) ->
        let located =
          List.map
            (fun (i, (c : Chunk.t)) ->
              (i, c.len, Crc32.sub c.src ~pos:c.off ~len:c.len))
            fresh
        in
        let e =
          { Epoch_index.epoch = it.epoch;
            kind = it.kind;
            roots = it.roots;
            chunks;
            at;
            located = Epoch_index.code_located located;
            dir =
              Epoch_index.code_dir
                (List.map (fun (c : Chunk.t) -> c.records) it.chunks) }
        in
        ( List.fold_left (fun at (_, len, _) -> at + len) at located,
          idx.make it.chain e :: acc ))
      (start, []) items staged
  in
  let entries = List.rev rev_entries in
  let index_bytes = Epoch_index.encode_batch idx.encode ~entry:idx.entry entries in
  if index_bytes <> "" then begin
    let before = if vfs.Vfs.exists path then vfs.Vfs.size path else 0 in
    try Vfs.write_synced vfs Append path (fun write -> write index_bytes)
    with e ->
      (* Not committed: whatever part of the batch landed is cut, so the
         next batch is not appended after torn bytes a reopen stops at. *)
      let bt = Printexc.get_raw_backtrace () in
      if vfs.Vfs.exists path && vfs.Vfs.size path > before then
        vfs.Vfs.truncate path ~len:before;
      Printexc.raise_with_backtrace e bt
  end;
  (* Committed: only now do its chunks join the table, CRC'd from the
     bytes just written, and its collisions belong to an epoch. *)
  List.iter
    (fun x -> ignore (Pack.locate pack ~checked:true (idx.entry x) : int))
    entries;
  { entries;
    collisions;
    fresh_chunks =
      List.fold_left (fun n (_, fresh) -> n + List.length fresh) 0 staged;
    bytes_written = stop - start + String.length index_bytes;
    index_bytes = String.length index_bytes }

(* ------------------------------------------------------------------ *)
(* GC.                                                                 *)

let relocate pack entries =
  let seen = Hashtbl.create 256 in
  let at = ref 0 in
  List.split
    (List.map
       (fun (e : Epoch_index.entry) ->
         let start = !at in
         let firsts =
           List.concat
             (List.mapi
                (fun i k ->
                  if Hashtbl.mem seen k then []
                  else begin
                    Hashtbl.replace seen k ();
                    at := !at + Pack.chunk_len pack k;
                    [ (i, k) ]
                  end)
                e.chunks)
         in
         ( { e with
             at = start;
             located =
               Epoch_index.code_located
                 (List.map
                    (fun (i, k) ->
                      (i, Pack.chunk_len pack k, Pack.chunk_crc pack k))
                    firsts) },
           List.map snd firsts ))
       entries)

(* ------------------------------------------------------------------ *)
(* Reading entries back.                                               *)

let segment pack (e : Epoch_index.entry) =
  { Segment.kind = e.kind;
    seq = e.epoch;
    roots = e.roots;
    body =
      String.concat ""
        (Array.to_list (Pack.read_many pack (Array.of_list e.chunks))) }

let logical_bytes pack entries =
  List.fold_left
    (fun acc (e : Epoch_index.entry) ->
      List.fold_left (fun acc k -> acc + Pack.chunk_len pack k) acc e.chunks)
    0 entries

type progress = { next : int option; since_full_bytes : int; full_due : bool }

(* The chains whose next epoch must be full, for the whole process: the
   heap whose modified flags a lost take cleared outlives the store or
   service value that took it, so a reopen in the same process must still
   take a full. Keyed by a file and a chain in it. *)
let due : (string * int, unit) Hashtbl.t = Hashtbl.create 8

let due_lock = Mutex.create ()

let with_due f =
  Mutex.lock due_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock due_lock) f

let mark_due ~file ~chain =
  with_due (fun () -> Hashtbl.replace due (file, chain) ())

let note_commit ~file ~chain kind =
  if kind = Segment.Full then
    with_due (fun () -> Hashtbl.remove due (file, chain))

let progress pack entries =
  let incrementals =
    List.filter
      (fun (e : Epoch_index.entry) -> e.kind = Segment.Incremental)
      (since_full entries ~epoch:max_int)
  in
  { next = Option.map succ (newest entries);
    since_full_bytes = logical_bytes pack incrementals;
    full_due = false }

let failed pack entries = { (progress pack entries) with full_due = true }

let resume ~file ~chain pack entries =
  if with_due (fun () -> Hashtbl.mem due (file, chain)) then
    failed pack entries
  else progress pack entries

let advance p (seg : Segment.t) =
  match seg.kind with
  | Segment.Full ->
      { next = Some (seg.seq + 1); since_full_bytes = 0; full_due = false }
  | Segment.Incremental ->
      { p with
        next = Some (seg.seq + 1);
        since_full_bytes = p.since_full_bytes + Segment.body_size seg }

let take policy p ~out write roots =
  let kind =
    if p.full_due then Segment.Full
    else Policy.decide policy ~next:p.next ~since_full_bytes:p.since_full_bytes
  in
  Chain.segment ~out ~kind ~seq:(Option.value p.next ~default:0) (write kind)
    roots
