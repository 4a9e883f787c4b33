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

(* Resolve one item's chunks against the pack, pushing its fresh chunks
   and collisions (newest first) onto the batch's, and build its entry.
   Dedup: a key hit is only a duplicate if the bytes agree. Pack.resolve
   byte-verifies every hit and, on a genuine collision, degrades to a
   salted rehash instead of refusing the epoch. *)
let stage pack ~pending ~fresh ~collisions it =
  let keys =
    List.map
      (fun (c : Chunk.t) ->
        match Pack.resolve pack ~pending ~key:c.key c.data with
        | Pack.Dup key -> key
        | Pack.Fresh { key; attempt } ->
            fresh := (key, c.data) :: !fresh;
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
  let dir =
    Array.make
      (List.fold_left (fun n (c : Chunk.t) -> n + (3 * List.length c.records)) 0
         it.chunks)
      0
  in
  let j = ref 0 in
  List.iteri
    (fun i (c : Chunk.t) ->
      List.iter
        (fun (id, off) ->
          dir.(!j) <- id;
          dir.(!j + 1) <- i;
          dir.(!j + 2) <- off;
          j := !j + 3)
        c.records)
    it.chunks;
  { Epoch_index.epoch = it.epoch;
    kind = it.kind;
    roots = it.roots;
    chunks = keys;
    dir }

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
  decode : string -> pos:int -> 'a * int;
  encode : 'a -> string;
  chain : 'a -> int;
  entry : 'a -> Epoch_index.entry;
  make : int -> Epoch_index.entry -> 'a;
}

let plain =
  { decode = Epoch_index.decode;
    encode = Epoch_index.encode;
    chain = (fun _ -> 0);
    entry = Fun.id;
    make = (fun _ e -> e) }

let mux =
  { decode = Epoch_index.decode_mux;
    encode = Epoch_index.encode_mux;
    chain = (fun m -> m.Epoch_index.m_tenant);
    entry = (fun m -> m.Epoch_index.m_entry);
    make = (fun m_tenant m_entry -> { Epoch_index.m_tenant; m_entry }) }

let resolves pack (e : Epoch_index.entry) =
  match Array.of_list (List.map (Pack.chunk_len pack) e.chunks) with
  | exception Not_found -> false
  | lens ->
      let rec ok i =
        i >= Array.length e.dir
        ||
        let c = e.dir.(i + 1) and off = e.dir.(i + 2) in
        c >= 0 && c < Array.length lens && off >= 0 && off < lens.(c)
        && ok (i + 3)
      in
      ok 0

(* Longest valid prefix: per chain, the oldest epoch full and the rest
   contiguous, every entry resolving against the pack. Crash-consistent
   operation never violates this (the pack is synced before the index),
   so rejections are defensive — but one cuts the whole file there, which
   keeps every chain in it a committed prefix. *)
let valid_prefix idx pack items =
  let next : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let e = idx.entry x in
        let ok =
          Chain.continuity ~next:(Hashtbl.find_opt next (idx.chain x)) e.kind
            ~epoch:e.epoch
          = None
          && resolves pack e
        in
        if ok then begin
          Hashtbl.replace next (idx.chain x) (e.epoch + 1);
          go (x :: acc) rest
        end
        else List.rev acc
  in
  go [] items

let recover idx vfs path pack =
  let raw = Vfs.contents vfs path in
  let loaded, valid = In_stream.intact_prefix idx.decode raw in
  let kept = valid_prefix idx pack loaded in
  (* Encoding is deterministic, so the kept entries re-encode to exactly
     the on-disk prefix to keep. *)
  let len =
    if List.compare_lengths kept loaded = 0 then valid
    else List.fold_left (fun n x -> n + String.length (idx.encode x)) 0 kept
  in
  if len < String.length raw then vfs.Vfs.truncate path ~len;
  kept

let check_entry pack (e : Epoch_index.entry) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let hex = Hash64.to_hex in
  let data =
    Array.of_list
      (List.map
         (fun k ->
           if not (Pack.mem pack k) then begin
             err "references missing chunk %s" (hex k);
             None
           end
           else
             let d = Pack.read pack k in
             if not (Chunk.key_matches k d) then
               err "chunk %s content does not match its key" (hex k);
             Some d)
         e.chunks)
  in
  for i = 0 to (Array.length e.dir / 3) - 1 do
    let d_id = e.dir.(3 * i) and d_chunk = e.dir.((3 * i) + 1) in
    let d_off = e.dir.((3 * i) + 2) in
    if d_chunk < 0 || d_chunk >= Array.length data then
      err "record %d points at chunk index %d/%d" d_id d_chunk
        (Array.length data)
    else
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
              err "record %d at offset %d is truncated" d_id d_off)
  done;
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
}

let commit idx vfs ~path pack items =
  let pending = Hashtbl.create 16 and fresh = ref [] and collisions = ref [] in
  let entries =
    List.map
      (fun (it : item) ->
        idx.make it.chain (stage pack ~pending ~fresh ~collisions it))
      items
  in
  let fresh = List.rev !fresh in
  let pack_bytes = Pack.append_batch pack fresh in
  let index_bytes = String.concat "" (List.map idx.encode entries) in
  if index_bytes <> "" then
    Vfs.write_synced vfs Append path (fun write -> write index_bytes);
  (* Committed: only now do its collisions belong to an epoch. *)
  { entries;
    collisions = List.rev !collisions;
    fresh_chunks = List.length fresh;
    bytes_written = pack_bytes + String.length index_bytes }

(* ------------------------------------------------------------------ *)
(* Reading entries back.                                               *)

let segment pack (e : Epoch_index.entry) =
  { Segment.kind = e.kind;
    seq = e.epoch;
    roots = e.roots;
    body = String.concat "" (List.map (Pack.read pack) e.chunks) }

let logical_bytes pack entries =
  List.fold_left
    (fun acc (e : Epoch_index.entry) ->
      List.fold_left (fun acc k -> acc + Pack.chunk_len pack k) acc e.chunks)
    0 entries
