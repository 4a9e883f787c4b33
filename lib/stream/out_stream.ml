(* One flat buffer and a position. A sink keeps no bytes and only counts:
   its [pos] is the size it would have written. Every write makes one
   capacity check, then stores unchecked. *)
type t = { mutable buf : Bytes.t; mutable pos : int; sink : bool }

let create ?(initial_size = 4096) () =
  { buf = Bytes.create (max 16 initial_size); pos = 0; sink = false }

let sink () = { buf = Bytes.empty; pos = 0; sink = true }

let is_sink t = t.sink

(* Room for [n] more bytes, doubling. Only a buffered stream calls it. *)
let grow t n =
  let need = t.pos + n in
  let cap = ref (2 * Bytes.length t.buf) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit t.buf 0 buf 0 t.pos;
  t.buf <- buf

let write_int t n =
  if t.sink then t.pos <- t.pos + Varint.encoded_size n
  else begin
    if t.pos + Varint.max_size > Bytes.length t.buf then grow t Varint.max_size;
    t.pos <- Varint.unsafe_set t.buf t.pos n
  end

let write_run t ~tag ~ids ~offs ~first ~count ~prev =
  if
    first < 0 || count < 0
    || first > Array.length ids - count
    || first > Array.length offs - count
  then invalid_arg "Out_stream.write_run";
  if t.sink then begin
    t.pos <- t.pos + Varint.encoded_size tag + Varint.encoded_size count;
    let id = ref prev and off = ref 0 in
    for r = first to first + count - 1 do
      t.pos <-
        t.pos + Varint.encoded_size (ids.(r) - !id)
        + Varint.encoded_size (offs.(r) - !off);
      id := ids.(r);
      off := offs.(r)
    done
  end
  else begin
    let room = 2 * (count + 1) * Varint.max_size in
    if t.pos + room > Bytes.length t.buf then grow t room;
    t.pos <-
      Varint.unsafe_set_run t.buf t.pos ~tag ~ids ~offs ~first ~count ~prev
  end

let write_byte t n =
  if not t.sink then begin
    if t.pos >= Bytes.length t.buf then grow t 1;
    Bytes.unsafe_set t.buf t.pos (Char.unsafe_chr (n land 0xff))
  end;
  t.pos <- t.pos + 1

let write_fixed32 t n =
  if not t.sink then begin
    if t.pos + 4 > Bytes.length t.buf then grow t 4;
    let b = t.buf and p = t.pos in
    Bytes.unsafe_set b p (Char.unsafe_chr (n land 0xff));
    Bytes.unsafe_set b (p + 1) (Char.unsafe_chr ((n lsr 8) land 0xff));
    Bytes.unsafe_set b (p + 2) (Char.unsafe_chr ((n lsr 16) land 0xff));
    Bytes.unsafe_set b (p + 3) (Char.unsafe_chr ((n lsr 24) land 0xff))
  end;
  t.pos <- t.pos + 4

let write_substring t s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Out_stream.write_substring";
  write_int t len;
  if not t.sink then begin
    if t.pos + len > Bytes.length t.buf then grow t len;
    Bytes.unsafe_blit_string s pos t.buf t.pos len
  end;
  t.pos <- t.pos + len

let write_string t s = write_substring t s ~pos:0 ~len:(String.length s)

let size t = t.pos

let contents t =
  if t.sink then invalid_arg "Out_stream.contents: sink stream";
  Bytes.sub_string t.buf 0 t.pos

let reset t = t.pos <- 0

let framed t ~magic ~version write =
  let start = t.pos in
  write_fixed32 t magic;
  write_byte t version;
  write t;
  write_fixed32 t
    (Crc32.sub (Bytes.unsafe_to_string t.buf) ~pos:start ~len:(t.pos - start))
