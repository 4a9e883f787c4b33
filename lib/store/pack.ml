open Ickpt_core
open Ickpt_stream

let magic = 0x4b504349 (* "ICPK" read as LE bytes; value is arbitrary *)

let version = 1

(* Where a chunk body lives: [len] bytes at [off] of an immutable string —
   the file bytes read at open, or the frames of the batch that appended
   it — in the frame starting at [start]. [checked] once the frame's CRC
   has been verified. *)
type slice = {
  src : string;
  start : int;
  off : int;
  len : int;
  mutable checked : bool;
}

type t = {
  vfs : Vfs.t;
  file : string;
  mutable size : int;  (* bytes of intact frames: the file's length *)
  tbl : (int, slice) Hashtbl.t;
  mutable order : int list;  (* keys, reverse append order *)
}

let frame_size key body =
  let len = String.length body in
  4 + 1 + Varint.encoded_size key + Varint.encoded_size len + len + 4

(* Append one frame to [buf]. The CRC runs over the header bytes and then
   the body in place, so the body is copied once, into [buf]. *)
let add_frame buf key body =
  let start = Buffer.length buf in
  Buffer.add_int32_le buf (Int32.of_int magic);
  Buffer.add_uint8 buf version;
  Varint.write buf key;
  Varint.write buf (String.length body);
  let header = Buffer.sub buf start (Buffer.length buf - start) in
  Buffer.add_string buf body;
  Buffer.add_int32_le buf
    (Int32.of_int (Crc32.string ~crc:(Crc32.string header) body))

let encode_frame key body =
  let buf = Buffer.create (frame_size key body) in
  add_frame buf key body;
  Buffer.contents buf

let crc_ok { src; start; off; len; _ } =
  In_stream.read_fixed32 (In_stream.of_string_at src ~pos:(off + len))
  = Crc32.sub src ~pos:start ~len:(off + len - start)

(* The frame at [pos], its CRC checked unless it ends at or before
   [trusted]; returns ((key, slice), end pos). Raises In_stream.Corrupt on
   anything short of a whole frame with a well-formed header, or on a
   checked frame whose CRC disagrees. *)
let frame s ~trusted ~pos =
  let inp = In_stream.of_string_at s ~pos in
  let m = In_stream.read_fixed32 inp in
  if m <> magic then
    raise (In_stream.Corrupt (Printf.sprintf "bad pack magic %#x at %d" m pos));
  let v = In_stream.read_byte inp in
  if v <> version then
    raise (In_stream.Corrupt (Printf.sprintf "unsupported pack version %d" v));
  let key = In_stream.read_int inp in
  let len = In_stream.read_int inp in
  let off = In_stream.pos inp in
  In_stream.skip inp len;
  In_stream.skip inp 4;
  let next = In_stream.pos inp in
  let slice = { src = s; start = pos; off; len; checked = next > trusted } in
  if slice.checked && not (crc_ok slice) then
    raise (In_stream.Corrupt (Printf.sprintf "pack crc mismatch at %d" pos));
  ((key, slice), next)

(* A slice's bytes are read only once its frame's CRC holds. *)
let verified key s =
  if not s.checked then begin
    if not (crc_ok s) then
      raise
        (In_stream.Corrupt
           (Printf.sprintf "pack crc mismatch at %d (chunk %s)" s.start
              (Hash64.to_hex key)));
    s.checked <- true
  end;
  s

let add t key slice =
  if not (Hashtbl.mem t.tbl key) then begin
    Hashtbl.replace t.tbl key slice;
    t.order <- key :: t.order
  end

let load t ~committed =
  Hashtbl.reset t.tbl;
  t.order <- [];
  let raw = Vfs.contents t.vfs t.file in
  let (), valid =
    In_stream.fold_intact
      (frame ~trusted:(min committed (String.length raw)))
      raw
      (fun () (key, slice) -> add t key slice)
      ()
  in
  (* Cut a torn tail off before the next append: garbage after the intact
     prefix would make every later frame unreachable. [raw] keeps the cut
     bytes, but no slice reaches past [valid]. *)
  if valid < String.length raw then t.vfs.Vfs.truncate t.file ~len:valid;
  t.size <- valid

let open_ ?(vfs = Vfs.real) ?(committed = 0) file =
  let t = { vfs; file; size = 0; tbl = Hashtbl.create 256; order = [] } in
  load t ~committed;
  t

let reload t = load t ~committed:0

let path t = t.file

let mem t key = Hashtbl.mem t.tbl key

let read t key =
  let { src; off; len; _ } = verified key (Hashtbl.find t.tbl key) in
  String.sub src off len

let chunk_len t key = (Hashtbl.find t.tbl key).len

let keys t = List.rev t.order

let length t = Hashtbl.length t.tbl

let physical_bytes t = t.size

let append_batch t batch =
  match batch with
  | [] -> 0
  | _ ->
      List.iter
        (fun (key, _) ->
          if Hashtbl.mem t.tbl key then
            invalid_arg "Pack.append_batch: duplicate key")
        batch;
      let buf =
        Buffer.create
          (List.fold_left (fun n (k, body) -> n + frame_size k body) 0 batch)
      in
      List.iter (fun (key, body) -> add_frame buf key body) batch;
      let frames = Buffer.contents buf in
      Vfs.write_synced t.vfs Append t.file (fun write -> write frames);
      (* The new chunks are indexed where they already are, in [frames]:
         each frame is decoded (and its CRC checked) once, nothing is
         copied. *)
      let pos = ref 0 in
      List.iter
        (fun (key, _) ->
          let (k, slice), next = frame frames ~trusted:0 ~pos:!pos in
          assert (k = key);
          add t key slice;
          pos := next)
        batch;
      t.size <- t.size + String.length frames;
      String.length frames

type resolution =
  | Dup of int
  | Fresh of { key : int; attempt : int }

(* Does the slice hold exactly [data]? Compared in place, eight bytes at a
   time, without copying the chunk out. *)
let equal_at { src; off; len; _ } data =
  len = String.length data
  &&
  let i = ref 0 in
  while
    !i + 8 <= len
    && Int64.equal
         (String.get_int64_le src (off + !i))
         (String.get_int64_le data !i)
  do
    i := !i + 8
  done;
  while !i < len && src.[off + !i] = data.[!i] do
    incr i
  done;
  !i = len

(* Walk the salt ladder: the content key first, then salted rehashes. A key
   hit only counts as a duplicate if the bytes agree — otherwise it is a
   collision and the next rung is tried. [pending] holds same-batch fresh
   chunks not yet in the pack; a Fresh result is recorded there so the rest
   of the batch dedups (and collides) against it too. *)
let resolve t ~pending ~key data =
  let rec go attempt =
    if attempt > Chunk.max_salt_attempts then
      failwith "Pack.resolve: salted rehash attempts exhausted"
    else
      let key = if attempt = 0 then key else Chunk.salted_key data ~attempt in
      let same =
        match Hashtbl.find_opt t.tbl key with
        | Some s -> Some (equal_at (verified key s) data)
        | None -> Option.map (String.equal data) (Hashtbl.find_opt pending key)
      in
      match same with
      | Some true -> Dup key
      | Some false -> go (attempt + 1)
      | None ->
          Hashtbl.replace pending key data;
          Fresh { key; attempt }
  in
  go 0

let stage_rewrite t ~keep =
  let tmp = Vfs.temp_of t.file in
  let bytes = ref 0 in
  Vfs.write_synced t.vfs Trunc tmp (fun write ->
      List.iter
        (fun key ->
          if keep key then begin
            let f = encode_frame key (read t key) in
            bytes := !bytes + String.length f;
            write f
          end)
        (keys t));
  (tmp, !bytes)
