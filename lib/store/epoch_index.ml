open Ickpt_core
open Ickpt_stream

let magic = 0x584b4349 (* "ICKX" read as LE bytes; value is arbitrary *)

let version = 1

type entry = {
  epoch : int;
  kind : Segment.kind;
  roots : int list;
  chunks : int list;
  dir : int array;
}

let kind_byte = function Segment.Full -> 0 | Segment.Incremental -> 1

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
  if Array.length e.dir mod 3 <> 0 then
    invalid_arg "Epoch_index: dir is not triples";
  Out_stream.write_int d (Array.length e.dir / 3);
  Array.iter (Out_stream.write_int d) e.dir

(* A count of items at least [width] bytes each (one varint per field) can
   claim no more than the bytes left, so a forged count is [Corrupt] here
   rather than an allocation of whatever size it names. *)
let read_count inp ~width =
  let n = In_stream.read_int inp in
  if n < 0 || n > In_stream.remaining inp / width then
    raise (In_stream.Corrupt (Printf.sprintf "bad index entry count %d" n));
  n

let read_ints inp n = List.init n (fun _ -> In_stream.read_int inp)

let read_payload inp =
  let epoch = In_stream.read_int inp in
  let kind =
    match In_stream.read_byte inp with
    | 0 -> Segment.Full
    | 1 -> Segment.Incremental
    | k -> raise (In_stream.Corrupt (Printf.sprintf "bad entry kind %d" k))
  in
  let roots = read_ints inp (read_count inp ~width:1) in
  let chunks = read_ints inp (read_count inp ~width:1) in
  let dir = Array.make (3 * read_count inp ~width:3) 0 in
  for i = 0 to Array.length dir - 1 do
    dir.(i) <- In_stream.read_int inp
  done;
  { epoch; kind; roots; chunks; dir }

let encode e = Out_stream.framed ~magic ~version (fun d -> write_payload d e)

let decode s ~pos =
  In_stream.framed ~magic ~version ~what:"index" read_payload s ~pos

let load vfs path = In_stream.intact_prefix decode (Vfs.contents vfs path)

let write_staged vfs ~path entries =
  let tmp = Storage.temp_of ~path in
  Vfs.write_synced vfs Trunc tmp (fun write ->
      List.iter (fun e -> write (encode e)) entries);
  tmp

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
      { m_tenant; m_entry = read_payload inp })
    s ~pos

let load_mux vfs path =
  In_stream.intact_prefix decode_mux (Vfs.contents vfs path)
