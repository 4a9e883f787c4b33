open Ickpt_core
open Ickpt_stream

let magic = 0x584b4349 (* "ICKX" read as LE bytes; value is arbitrary *)

let version = 4

exception Unsupported_version of string

(* A coded list of [count] items: a slice of the bytes it was read from
   or coded into. *)
type slice = { src : string; off : int; len : int; count : int }

type located = slice

type dir = slice

type entry = {
  epoch : int;
  kind : Segment.kind;
  folded : bool;
  size : int;
  roots : int list;
  chunks : int list;
  at : int;
  located : located;
  dir : dir;
}

let kind_byte e =
  match e.kind with
  | Segment.Full -> if e.folded then 2 else 0
  | Segment.Incremental -> 1

let slice_of d count =
  let src = Out_stream.contents d in
  { src; off = 0; len = String.length src; count }

let malformed e what =
  raise
    (In_stream.Corrupt (Printf.sprintf "epoch %d: malformed %s" e.epoch what))

(* ------------------------------------------------------------------ *)
(* The located chunks.                                                 *)

let code_located locs =
  let d = Out_stream.create () in
  let prev = ref (-1) in
  List.iter
    (fun (i, len, crc) ->
      Out_stream.write_int d (i - !prev);
      Out_stream.write_int d len;
      Out_stream.write_fixed32 d crc;
      prev := i)
    locs;
  slice_of d (List.length locs)

let rec drop n l = match l with _ :: l when n > 0 -> drop (n - 1) l | _ -> l

let iter_located e f =
  let { src; off; len; count } = e.located in
  let inp = In_stream.of_string_at src ~pos:off in
  let rec go chunks pos n =
    if n > 0 then begin
      let skip = In_stream.read_int inp in
      if skip < 1 then malformed e "located chunk index";
      match drop (skip - 1) chunks with
      | [] -> malformed e "located chunk index"
      | key :: rest ->
          let len = In_stream.read_int inp in
          if len < 0 || pos > max_int - len then
            malformed e "located chunk length";
          f key ~pos ~len ~crc:(In_stream.read_fixed32 inp);
          go rest (pos + len) (n - 1)
    end
  in
  go e.chunks e.at count;
  if In_stream.pos inp <> off + len then malformed e "located chunks (length)"

let located_count e = e.located.count

let located_end e =
  let stop = ref e.at in
  iter_located e (fun _ ~pos ~len ~crc:_ -> stop := pos + len);
  !stop

(* ------------------------------------------------------------------ *)
(* The coded directory.                                                *)

(* The stream is presized at two bytes a record and one a chunk, plus the
   room a last varint needs, which holds a body's usual small id and
   offset deltas without doubling. *)
let code_dir chunks =
  let records =
    List.fold_left (fun n recs -> n + (Array.length recs / 2)) 0 chunks
  in
  let d =
    Out_stream.create
      ~initial_size:((2 * records) + List.length chunks + Varint.max_size)
      ()
  in
  let id = ref 0 in
  List.iter
    (fun recs ->
      let n = Array.length recs / 2 in
      Out_stream.write_int d n;
      let off = ref 0 in
      for r = 0 to n - 1 do
        let i = recs.(2 * r) and o = recs.((2 * r) + 1) in
        Out_stream.write_int d (i - !id);
        Out_stream.write_int d (o - !off);
        id := i;
        off := o
      done)
    chunks;
  slice_of d records

(* A folded directory: its run count, then per run the chunk's index,
   a record count and the records, the offset restarting at 0 per run.
   The stream is presized at two bytes a record and three a run, plus
   room for the longest run at its widest, which holds a body's usual
   small deltas without doubling. *)
let code_runs ~chunks ~counts ~ids ~offs =
  let runs = Array.length chunks and n = Array.length ids in
  let longest = Array.fold_left max 0 counts in
  let d =
    Out_stream.create
      ~initial_size:((2 * n) + (3 * runs) + (2 * Varint.max_size * (longest + 2)))
      ()
  in
  Out_stream.write_int d runs;
  let prev = ref 0 and first = ref 0 in
  for run = 0 to runs - 1 do
    let count = counts.(run) in
    Out_stream.write_run d ~tag:chunks.(run) ~ids ~offs ~first:!first ~count
      ~prev:!prev;
    first := !first + count;
    if count > 0 then prev := ids.(!first - 1)
  done;
  slice_of d n

let dir_records d = d.count

let iter_dir e f =
  let { src; off; len; count } = e.dir in
  let inp = In_stream.of_string_at src ~pos:off in
  let id = ref 0 and left = ref count in
  let group c =
    let n = In_stream.read_int inp in
    if n < 0 || n > !left then malformed e "directory (record count)";
    left := !left - n;
    let o = ref 0 in
    for _ = 1 to n do
      id := !id + In_stream.read_int inp;
      o := !o + In_stream.read_int inp;
      f !id c !o
    done
  in
  let nchunks = List.length e.chunks in
  if e.folded then begin
    let runs = In_stream.read_int inp in
    if runs < 0 || runs > len then malformed e "directory (run count)";
    for _ = 1 to runs do
      let c = In_stream.read_int inp in
      if c < 0 || c >= nchunks then malformed e "directory (run chunk)";
      group c
    done
  end
  else
    for c = 0 to nchunks - 1 do
      group c
    done;
  if !left <> 0 then malformed e "directory (fewer records than counted)";
  if In_stream.pos inp <> off + len then malformed e "directory (length)"

(* ------------------------------------------------------------------ *)
(* Chain rules over one chain's entries, oldest first.                 *)

let newest entries = List.fold_left (fun _ e -> Some e.epoch) None entries

let newest_full entries ~epoch =
  List.fold_left
    (fun acc e -> if e.kind = Segment.Full && e.epoch <= epoch then e.epoch else acc)
    (match entries with e :: _ -> e.epoch | [] -> epoch)
    entries

let since_full entries ~epoch =
  let base = newest_full entries ~epoch in
  List.filter (fun e -> e.epoch >= base && e.epoch <= epoch) entries

(* ------------------------------------------------------------------ *)
(* Entries.                                                            *)

(* The item count, then the length-prefixed bytes. *)
let write_slice d s =
  Out_stream.write_int d s.count;
  Out_stream.write_substring d s.src ~pos:s.off ~len:s.len

(* The entry payload (everything between the header and the crc) is shared
   between the plain per-store wire format and the multiplexed per-shard
   one — only the header differs (the mux adds a tenant id). *)
let write_payload d e =
  Out_stream.write_int d e.epoch;
  Out_stream.write_byte d (kind_byte e);
  Out_stream.write_int d e.size;
  Out_stream.write_int d (List.length e.roots);
  List.iter (Out_stream.write_int d) e.roots;
  Out_stream.write_int d (List.length e.chunks);
  List.iter (Out_stream.write_int d) e.chunks;
  Out_stream.write_int d e.at;
  write_slice d e.located;
  write_slice d e.dir

let corrupt fmt = Printf.ksprintf (fun s -> raise (In_stream.Corrupt s)) fmt

(* A count of items at least [width] bytes each (one varint per field) can
   claim no more than the bytes left, so a forged count is [Corrupt] here
   rather than an allocation of whatever size it names. *)
let read_count inp ~width =
  let n = In_stream.read_int inp in
  if n < 0 || n > In_stream.remaining inp / width then
    corrupt "bad index entry count %d" n;
  n

let read_ints inp n = List.init n (fun _ -> In_stream.read_int inp)

(* [l]'s first [i] elements, then [tail]. *)
let rec copy i l tail =
  match l with y :: l when i > 0 -> y :: copy (i - 1) l tail | _ -> tail

(* [n] ids that are [prev]'s when they read the same: walking [prev]
   along the bytes ([i] ids read so far, [l] the rest of [prev])
   allocates nothing, and [prev] itself is returned. At the first id that
   differs, the list is built: [prev]'s ids before it, then the rest as
   read. *)
let rec read_roots inp n ~prev i l =
  if i = n then if l = [] then prev else copy n prev []
  else
    let x = In_stream.read_int inp in
    match l with
    | y :: l when y = x -> read_roots inp n ~prev (i + 1) l
    | _ ->
        copy i prev (x :: List.init (n - i - 1) (fun _ -> In_stream.read_int inp))

(* A coded list of items at least [width] bytes each: its item count, its
   byte length, then the bytes, kept as a slice of the string read. A forged item
   count cannot size anything past what the bytes could hold. *)
let read_slice inp ~width =
  let count = In_stream.read_int inp in
  let len = read_count inp ~width:1 in
  if count < 0 || count > len / width then corrupt "bad item count %d" count;
  let off = In_stream.pos inp in
  In_stream.skip inp len;
  { src = In_stream.source inp; off; len; count }

let read_payload ~prev inp =
  let epoch = In_stream.read_int inp in
  let k = In_stream.read_byte inp in
  if k > 2 then corrupt "bad entry kind %d" k;
  let kind = if k = 1 then Segment.Incremental else Segment.Full
  and folded = k = 2 in
  let size = In_stream.read_int inp in
  if size < 0 then corrupt "bad body size %d" size;
  let roots = read_roots inp (read_count inp ~width:1) ~prev 0 prev in
  let chunks = read_ints inp (read_count inp ~width:1) in
  let at = In_stream.read_int inp in
  if at < 0 then corrupt "bad pack offset %d" at;
  (* A located chunk takes an index, a length and a fixed32 CRC; a
     directory record two varints. *)
  let located = read_slice inp ~width:6 in
  let dir = read_slice inp ~width:2 in
  { epoch; kind; folded; size; roots; chunks; at; located; dir }

let encode d e = Out_stream.framed d ~magic ~version (fun d -> write_payload d e)

(* A frame's size with every varint at its widest: ten fixed bytes
   (magic, version, kind, crc), the mux's tenant id, nine counts and
   scalars, the roots and chunk keys, and the two slices' bytes. *)
let encoded_bound e =
  10 + e.located.len + e.dir.len
  + (Varint.max_size * (10 + List.length e.roots + List.length e.chunks))

(* Without [prev], one reader serves every entry: no closure per entry. *)
let read_entry = read_payload ~prev:[]

let decode ?prev s ~pos =
  let read =
    match prev with None -> read_entry | Some prev -> read_payload ~prev
  in
  In_stream.framed ~magic ~version ~what:"index" read s ~pos

let load vfs path =
  In_stream.intact_prefix (fun s ~pos -> decode s ~pos) (Vfs.contents vfs path)

let encode_batch encode ~entry items =
  let bound = List.fold_left (fun n x -> n + encoded_bound (entry x)) 0 items in
  let d = Out_stream.create ~initial_size:bound () in
  List.iter (encode d) items;
  Out_stream.contents d

let write_staged vfs ~path entries =
  let tmp = Vfs.temp_of path in
  let bytes = encode_batch encode ~entry:Fun.id entries in
  Vfs.write_synced vfs Trunc tmp (fun write -> write bytes);
  (tmp, String.length bytes)

(* ------------------------------------------------------------------ *)
(* Multiplexed (per-shard) index: many tenants' entries interleaved in
   one file, each tagged with its tenant id.                            *)

let mux_magic = 0x4d4b4349 (* "ICKM" read as LE bytes; value is arbitrary *)

type mux_entry = { m_tenant : int; m_entry : entry }

let encode_mux d m =
  Out_stream.framed d ~magic:mux_magic ~version (fun d ->
      Out_stream.write_int d m.m_tenant;
      write_payload d m.m_entry)

let decode_mux ?(prev = fun _ -> []) s ~pos =
  In_stream.framed ~magic:mux_magic ~version ~what:"mux index"
    (fun inp ->
      let m_tenant = In_stream.read_int inp in
      { m_tenant; m_entry = read_payload ~prev:(prev m_tenant) inp })
    s ~pos

let load_mux vfs path =
  In_stream.intact_prefix (fun s ~pos -> decode_mux s ~pos) (Vfs.contents vfs path)

let reject_older ~path raw =
  if String.length raw >= 5 then begin
    let m = Int32.to_int (String.get_int32_le raw 0) land 0xffffffff in
    let v = Char.code raw.[4] in
    if (m = magic || m = mux_magic) && v >= 1 && v < version then
      raise
        (Unsupported_version
           (Printf.sprintf
              "%s: index format version %d is not supported (this build \
               reads %d)"
              path v version))
  end
