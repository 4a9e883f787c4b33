(* [stop] is where the readable bytes end: the string's length, or the
   end of the last window. *)
type t = { data : string; mutable pos : int; mutable stop : int }

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let of_string data = { data; pos = 0; stop = String.length data }

let of_string_at data ~pos =
  if pos < 0 || pos > String.length data then
    invalid_arg "In_stream.of_string_at";
  { data; pos; stop = String.length data }

let pos t = t.pos

let source t = t.data

let remaining t = t.stop - t.pos

let at_end t = t.pos >= t.stop

let need t n what =
  if remaining t < n then
    corrupt "truncated input reading %s at offset %d (need %d, have %d)" what
      t.pos n (remaining t)

(* [Varint.unzigzag], spelt out: modules are compiled opaquely in the
   default build, so a call to another module is never inlined, and this
   runs once per varint read. *)
let unzigzag n = (n lsr 1) lxor -(n land 1)

(* Decodes in place — no tuple, no exception handler — since every field of
   every record comes through here. *)
let rec read_varint t acc shift pos =
  if pos >= t.stop then corrupt "truncated varint at %d" t.pos;
  let b = Char.code (String.unsafe_get t.data pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then begin
    t.pos <- pos + 1;
    unzigzag acc
  end
  else read_varint t acc (shift + 7) (pos + 1)

let read_int t = read_varint t 0 0 t.pos

(* A record's fields in one loop: the position stays in a local, and each
   varint is accumulated in place. *)
let read_ints t dst n =
  if n < 0 || n > Array.length dst then invalid_arg "In_stream.read_ints";
  let data = t.data and stop = t.stop in
  let pos = ref t.pos in
  for i = 0 to n - 1 do
    let start = !pos and acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !pos >= stop then corrupt "truncated varint at %d" start;
      let b = Char.code (String.unsafe_get data !pos) in
      acc := !acc lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr pos;
      more := b >= 0x80
    done;
    Array.unsafe_set dst i (unzigzag !acc)
  done;
  t.pos <- !pos

(* Skips [n] varints by their bytes alone: a varint ends at its first
   byte below 0x80, so each byte counts [1 - b lsr 7] varints, with no
   branch on the byte. A truncated one raises what [read_int] would,
   naming where it starts: just past the last end before the cut. *)
let skip_varints t n =
  let data = t.data and stop = t.stop in
  let pos = ref t.pos and left = ref n in
  while !left > 0 do
    if !pos >= stop then begin
      let start = ref !pos in
      while
        !start > t.pos && Char.code (String.unsafe_get data (!start - 1)) >= 0x80
      do
        decr start
      done;
      corrupt "truncated varint at %d" !start
    end;
    left := !left - 1 + (Char.code (String.unsafe_get data !pos) lsr 7);
    incr pos
  done;
  t.pos <- !pos

let window t ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length t.data - len then
    invalid_arg "In_stream.window";
  t.pos <- pos;
  t.stop <- pos + len

let read_byte t =
  need t 1 "byte";
  let b = Char.code (String.unsafe_get t.data t.pos) in
  t.pos <- t.pos + 1;
  b

let read_fixed32 t =
  need t 4 "fixed32";
  let b i = Char.code (String.unsafe_get t.data (t.pos + i)) in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  t.pos <- t.pos + 4;
  v

let read_string t =
  let len = read_int t in
  if len < 0 then corrupt "negative string length %d" len;
  need t len "string body";
  let s = String.sub t.data t.pos len in
  t.pos <- t.pos + len;
  s

let skip t n =
  if n < 0 then corrupt "negative skip %d" n;
  need t n "skipped bytes";
  t.pos <- t.pos + n

let expect_byte t b what =
  let got = read_byte t in
  if got <> b then corrupt "bad %s: expected %#x, got %#x" what b got

let fold_intact decode data f acc =
  let len = String.length data in
  let rec go acc pos =
    if pos >= len then (acc, pos)
    else
      match decode data ~pos with
      | x, next -> go (f acc x) next
      | exception (Corrupt _ | Invalid_argument _) -> (acc, pos)
  in
  go acc 0

(* The list is built in file order as the frames decode, not reversed
   afterwards: one cell per item, in constant stack. *)
let intact_prefix decode data =
  let len = String.length data and stop = ref 0 in
  let[@tail_mod_cons] rec go pos =
    if pos >= len then begin
      stop := pos;
      []
    end
    else
      match decode data ~pos with
      | x, next -> x :: go next
      | exception (Corrupt _ | Invalid_argument _) ->
          stop := pos;
          []
  in
  let items = go 0 in
  (items, !stop)

let framed ~magic ~version ~what read s ~pos =
  let inp = of_string_at s ~pos in
  let m = read_fixed32 inp in
  if m <> magic then corrupt "bad %s magic %#x at %d" what m pos;
  let v = read_byte inp in
  if v <> version then corrupt "unsupported %s version %d" what v;
  let x = read inp in
  let body_end = inp.pos in
  if read_fixed32 inp <> Crc32.sub s ~pos ~len:(body_end - pos) then
    corrupt "%s crc mismatch at %d" what pos;
  (x, inp.pos)
