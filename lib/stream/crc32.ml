(* Slicing-by-8: [tables.(k * 256 + b)] is the CRC register after feeding
   byte [b] followed by [k] zero bytes, so eight table lookups advance the
   register over eight input bytes at once. Table 0 is the classic
   bytewise table. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xedb88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let tbl k b = Array.unsafe_get tables ((k lsl 8) lor b)

let sub ?(crc = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  (* Only the low 32 bits of [crc] count: the register must stay below
     2^32, or [lo lsr 24] would index past the tables. *)
  let c = ref ((crc lxor 0xffffffff) land 0xffffffff) in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let w = String.get_int64_le s !i in
    let lo = !c lxor (Int64.to_int w land 0xffffffff) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      tbl 7 (lo land 0xff)
      lxor tbl 6 ((lo lsr 8) land 0xff)
      lxor tbl 5 ((lo lsr 16) land 0xff)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xff)
      lxor tbl 2 ((hi lsr 8) land 0xff)
      lxor tbl 1 ((hi lsr 16) land 0xff)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    let b = Char.code (String.unsafe_get s j) in
    c := tbl 0 ((!c lxor b) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let string ?crc s = sub ?crc s ~pos:0 ~len:(String.length s)

let bytes ?crc b = string ?crc (Bytes.unsafe_to_string b)
