let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

let unzigzag n = (n lsr 1) lxor (-(n land 1))

let write buf n =
  let rec go n =
    (* [n] is treated as unsigned from here on; zigzag guarantees n >= 0
       except for min_int, which the lsr below still terminates on. *)
    if n lsr 7 = 0 then Buffer.add_char buf (Char.unsafe_chr (n land 0x7f))
    else begin
      Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go (zigzag n)

let set b pos n =
  let rec go pos n =
    if n lsr 7 = 0 then begin
      Bytes.set b pos (Char.unsafe_chr (n land 0x7f));
      pos + 1
    end
    else begin
      Bytes.set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
      go (pos + 1) (n lsr 7)
    end
  in
  go pos (zigzag n)

let encoded_size n =
  let rec go acc n = if n lsr 7 = 0 then acc else go (acc + 1) (n lsr 7) in
  go 1 (zigzag n)

let read s pos =
  let len = String.length s in
  let rec go acc shift pos =
    if pos >= len then invalid_arg "Varint.read: truncated input";
    let b = Char.code (String.unsafe_get s pos) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (unzigzag acc, pos + 1)
    else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos
