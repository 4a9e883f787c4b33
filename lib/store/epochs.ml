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
   degrades to a salted rehash instead of refusing the epoch. Returns each
   item's chunk keys, the fresh chunks to append and the collisions, both
   in batch order. *)
let stage pack items =
  let resolved =
    Array.of_list
      (Pack.resolve pack
         (List.concat_map
            (fun it -> List.map (fun (c : Chunk.t) -> (c.key, c.data)) it.chunks)
            items))
  in
  let next = ref 0 and fresh = ref [] and collisions = ref [] in
  let keys =
    List.map
      (fun it ->
        List.map
          (fun (c : Chunk.t) ->
            incr next;
            match resolved.(!next - 1) with
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
          it.chunks)
      items
  in
  (keys, List.rev !fresh, List.rev !collisions)

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

(* An entry resolves when the pack is as long as the entry says it was
   once its chunks were appended, and holds every chunk it names. Its
   directory is not decoded here: an offset past its chunk is Dir's error
   at fold time, and check's finding. *)
let resolves pack (e : Epoch_index.entry) =
  e.pack_len <= Pack.physical_bytes pack && List.for_all (Pack.mem pack) e.chunks

(* Longest valid prefix of [(item, end offset)]s: per chain, the oldest
   epoch full and the rest contiguous, every entry resolving against the
   pack. Crash-consistent operation never violates this (the pack is
   synced before the index), so rejections are defensive — but one cuts
   the whole file there, which keeps every chain in it a committed
   prefix. Returns the kept items and the end offset of the last. *)
let valid_prefix idx pack items =
  let next : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec go acc cut = function
    | [] -> (List.rev acc, cut)
    | (x, stop) :: rest ->
        let e = idx.entry x in
        let ok =
          Chain.continuity ~next:(Hashtbl.find_opt next (idx.chain x)) e.kind
            ~epoch:e.epoch
          = None
          && resolves pack e
        in
        if ok then begin
          Hashtbl.replace next (idx.chain x) (e.epoch + 1);
          go (x :: acc) stop rest
        end
        else (List.rev acc, cut)
  in
  go [] 0 items

type 'a loaded = {
  file : string;
  size : int;
  items : ('a * int) list;  (* intact items, each with its end offset *)
  pack_len : int;
}

let load idx vfs path =
  let raw = Vfs.contents vfs path in
  let items, valid =
    In_stream.intact_prefix
      (fun s ~pos ->
        let x, stop = idx.decode s ~pos in
        ((x, stop), stop))
      raw
  in
  if valid = 0 then Epoch_index.reject_older ~path raw;
  { file = path;
    size = String.length raw;
    items;
    pack_len =
      List.fold_left
        (fun n (x, _) -> max n (idx.entry x).Epoch_index.pack_len)
        0 items }

let committed_pack_len l = l.pack_len

let recover idx vfs l pack =
  let kept, len = valid_prefix idx pack l.items in
  if len < l.size then vfs.Vfs.truncate l.file ~len;
  (kept, len)

let check_entry pack (e : Epoch_index.entry) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let hex = Hash64.to_hex in
  if e.pack_len > Pack.physical_bytes pack then
    err "names pack length %d past the pack's end (%d)" e.pack_len
      (Pack.physical_bytes pack);
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
               if not (Chunk.key_matches k d) then
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

let check_orphans pack entries =
  let referenced = Hashtbl.create 256 in
  List.iter
    (fun (e : Epoch_index.entry) ->
      List.iter (fun k -> Hashtbl.replace referenced k ()) e.chunks)
    entries;
  List.filter_map
    (fun k ->
      if Hashtbl.mem referenced k then None
      else
        match Pack.read pack k with
        | _ -> None
        | exception In_stream.Corrupt msg ->
            Some ("orphan frame: " ^ msg))
    (Pack.keys pack)

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
  let keys, fresh, collisions = stage pack items in
  let pack_bytes = Pack.append_batch pack fresh in
  let pack_len = Pack.physical_bytes pack in
  let entries =
    List.map2
      (fun (it : item) chunks ->
        idx.make it.chain
          { Epoch_index.epoch = it.epoch;
            kind = it.kind;
            roots = it.roots;
            chunks;
            pack_len;
            dir =
              Epoch_index.code_dir
                (List.map (fun (c : Chunk.t) -> c.records) it.chunks) })
      items keys
  in
  let index_bytes = String.concat "" (List.map idx.encode entries) in
  if index_bytes <> "" then
    Vfs.write_synced vfs Append path (fun write -> write index_bytes);
  (* Committed: only now do its collisions belong to an epoch. *)
  { entries;
    collisions;
    fresh_chunks = List.length fresh;
    bytes_written = pack_bytes + String.length index_bytes;
    index_bytes = String.length index_bytes }

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

type progress = { next : int option; since_full_bytes : int }

let progress pack entries =
  let incrementals =
    List.filter
      (fun (e : Epoch_index.entry) -> e.kind = Segment.Incremental)
      (since_full entries ~epoch:max_int)
  in
  { next = Option.map succ (newest entries);
    since_full_bytes = logical_bytes pack incrementals }

let advance p (seg : Segment.t) =
  { next = Some (seg.seq + 1);
    since_full_bytes =
      (match seg.kind with
      | Segment.Full -> 0
      | Segment.Incremental -> p.since_full_bytes + Segment.body_size seg) }

let take policy p write roots =
  let kind =
    Policy.decide policy ~next:p.next ~since_full_bytes:p.since_full_bytes
  in
  Chain.segment ~kind ~seq:(Option.value p.next ~default:0) (write kind) roots
