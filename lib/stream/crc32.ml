(* Slicing-by-16: [tables.(k * 256 + b)] is the CRC register after feeding
   byte [b] followed by [k] zero bytes, so sixteen table lookups advance
   the register over sixteen input bytes at once. Table 0 is the classic
   bytewise table. *)
let tables =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let tbl k b = Array.unsafe_get tables ((k lsl 8) lor b)

external get64u : string -> int -> int64 = "%caml_string_get64u"

let sub ?(crc = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  (* Only the low 32 bits of [crc] count: the register must stay below
     2^32, or [w0 lsr 24] would index past the tables. *)
  let c = ref ((crc lxor 0xffffffff) land 0xffffffff) in
  let i = ref pos in
  (* The window is checked above, so the 8-byte loads go unchecked. They
     are in the host's byte order: a big-endian host takes the bytewise
     loop for everything. *)
  let stop16 = if Sys.big_endian then pos else pos + (len land lnot 15) in
  while !i < stop16 do
    let a = get64u s !i and b = get64u s (!i + 8) in
    let w0 = !c lxor (Int64.to_int a land 0xffffffff)
    and w1 = Int64.to_int (Int64.shift_right_logical a 32)
    and w2 = Int64.to_int b land 0xffffffff
    and w3 = Int64.to_int (Int64.shift_right_logical b 32) in
    (* Each byte through the table of its distance from the block's end;
       spelt out, since a helper per word is slower here. *)
    c :=
      tbl 15 (w0 land 0xff)
      lxor tbl 14 ((w0 lsr 8) land 0xff)
      lxor tbl 13 ((w0 lsr 16) land 0xff)
      lxor tbl 12 (w0 lsr 24)
      lxor tbl 11 (w1 land 0xff)
      lxor tbl 10 ((w1 lsr 8) land 0xff)
      lxor tbl 9 ((w1 lsr 16) land 0xff)
      lxor tbl 8 (w1 lsr 24)
      lxor tbl 7 (w2 land 0xff)
      lxor tbl 6 ((w2 lsr 8) land 0xff)
      lxor tbl 5 ((w2 lsr 16) land 0xff)
      lxor tbl 4 (w2 lsr 24)
      lxor tbl 3 (w3 land 0xff)
      lxor tbl 2 ((w3 lsr 8) land 0xff)
      lxor tbl 1 ((w3 lsr 16) land 0xff)
      lxor tbl 0 (w3 lsr 24);
    i := !i + 16
  done;
  for j = !i to pos + len - 1 do
    let b = Char.code (String.unsafe_get s j) in
    c := tbl 0 ((!c lxor b) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let string ?crc s = sub ?crc s ~pos:0 ~len:(String.length s)

let bytes ?crc b = string ?crc (Bytes.unsafe_to_string b)
