open Ickpt_core
open Ickpt_stream

let magic = 0x584b4349 (* "ICKX" read as LE bytes; value is arbitrary *)

let version = 2

exception Unsupported_version of string

type dir = { src : string; off : int; len : int; records : int }

type entry = {
  epoch : int;
  kind : Segment.kind;
  roots : int list;
  chunks : int list;
  pack_len : int;
  dir : dir;
}

let kind_byte = function Segment.Full -> 0 | Segment.Incremental -> 1

(* ------------------------------------------------------------------ *)
(* The coded directory.                                                *)

let code_dir chunks =
  let d = Out_stream.create () in
  let id = ref 0 and records = ref 0 in
  List.iter
    (fun recs ->
      Out_stream.write_int d (List.length recs);
      let off = ref 0 in
      List.iter
        (fun (i, o) ->
          Out_stream.write_int d (i - !id);
          Out_stream.write_int d (o - !off);
          id := i;
          off := o;
          incr records)
        recs)
    chunks;
  let src = Out_stream.contents d in
  { src; off = 0; len = String.length src; records = !records }

let dir_records d = d.records

let malformed e what =
  raise
    (In_stream.Corrupt
       (Printf.sprintf "epoch %d: malformed directory (%s)" e.epoch what))

let iter_dir e f =
  let { src; off; len; records } = e.dir in
  let inp = In_stream.of_string_at src ~pos:off in
  let id = ref 0 and left = ref records in
  for c = 0 to List.length e.chunks - 1 do
    let n = In_stream.read_int inp in
    if n < 0 || n > !left then malformed e "record count";
    left := !left - n;
    let o = ref 0 in
    for _ = 1 to n do
      id := !id + In_stream.read_int inp;
      o := !o + In_stream.read_int inp;
      f !id c !o
    done
  done;
  if !left <> 0 then malformed e "fewer records than counted";
  if In_stream.pos inp <> off + len then malformed e "length"

(* ------------------------------------------------------------------ *)
(* Entries.                                                            *)

(* The entry payload (everything between the header and the crc) is shared
   between the plain per-store wire format and the multiplexed per-shard
   one — only the header differs (the mux adds a tenant id). *)
let write_payload d e =
  Out_stream.write_int d e.epoch;
  Out_stream.write_byte d (kind_byte e.kind);
  Out_stream.write_int d (List.length e.roots);
  List.iter (Out_stream.write_int d) e.roots;
  Out_stream.write_int d (List.length e.chunks);
  List.iter (Out_stream.write_int d) e.chunks;
  Out_stream.write_int d e.dir.records;
  Out_stream.write_int d e.pack_len;
  Out_stream.write_substring d e.dir.src ~pos:e.dir.off ~len:e.dir.len

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

let read_payload src inp =
  let epoch = In_stream.read_int inp in
  let kind =
    match In_stream.read_byte inp with
    | 0 -> Segment.Full
    | 1 -> Segment.Incremental
    | k -> corrupt "bad entry kind %d" k
  in
  let roots = read_ints inp (read_count inp ~width:1) in
  let chunks = read_ints inp (read_count inp ~width:1) in
  let records = In_stream.read_int inp in
  let pack_len = In_stream.read_int inp in
  if pack_len < 0 then corrupt "bad pack length %d" pack_len;
  let len = read_count inp ~width:1 in
  (* Two varints per record at least: a forged count cannot size a fold's
     slots past what the directory could hold. *)
  if records < 0 || records > len / 2 then corrupt "bad record count %d" records;
  let off = In_stream.pos inp in
  In_stream.skip inp len;
  { epoch; kind; roots; chunks; pack_len; dir = { src; off; len; records } }

let encode e = Out_stream.framed ~magic ~version (fun d -> write_payload d e)

let decode s ~pos =
  In_stream.framed ~magic ~version ~what:"index" (read_payload s) s ~pos

let load vfs path = In_stream.intact_prefix decode (Vfs.contents vfs path)

let write_staged vfs ~path entries =
  let tmp = Vfs.temp_of path in
  let bytes = ref 0 in
  Vfs.write_synced vfs Trunc tmp (fun write ->
      List.iter
        (fun e ->
          let s = encode e in
          bytes := !bytes + String.length s;
          write s)
        entries);
  (tmp, !bytes)

(* ------------------------------------------------------------------ *)
(* Multiplexed (per-shard) index: many tenants' entries interleaved in
   one file, each tagged with its tenant id.                            *)

let mux_magic = 0x4d4b4349 (* "ICKM" read as LE bytes; value is arbitrary *)

type mux_entry = { m_tenant : int; m_entry : entry }

let encode_mux m =
  Out_stream.framed ~magic:mux_magic ~version (fun d ->
      Out_stream.write_int d m.m_tenant;
      write_payload d m.m_entry)

let decode_mux s ~pos =
  In_stream.framed ~magic:mux_magic ~version ~what:"mux index"
    (fun inp ->
      let m_tenant = In_stream.read_int inp in
      { m_tenant; m_entry = read_payload s inp })
    s ~pos

let load_mux vfs path =
  In_stream.intact_prefix decode_mux (Vfs.contents vfs path)

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
