let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))

let unzigzag n = (n lsr 1) lxor (-(n land 1))

(* A zigzagged native int has at most [Sys.int_size] significant bits. *)
let max_size = (Sys.int_size + 6) / 7

(* Top-level loops, not local closures: a value is encoded without
   allocating. [n] is treated as unsigned from here on; zigzag guarantees
   n >= 0 except for min_int, which [lsr] still terminates on. *)
let rec add_unsigned buf n =
  if n lsr 7 = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (n land 0x7f lor 0x80));
    add_unsigned buf (n lsr 7)
  end

let write buf n = add_unsigned buf (zigzag n)

let rec set_unsigned b pos n =
  if n lsr 7 = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.unsafe_set b pos (Char.unsafe_chr (n land 0x7f lor 0x80));
    set_unsigned b (pos + 1) (n lsr 7)
  end

let unsafe_set b pos n = set_unsigned b pos (zigzag n)

(* [set_unsigned] with its one-byte case inline: the usual small delta. *)
let[@inline] put b pos u =
  if u lsr 7 = 0 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr u);
    pos + 1
  end
  else set_unsigned b pos u

let unsafe_set_run b pos ~tag ~ids ~offs ~first ~count ~prev =
  let pos = ref (put b (put b pos (zigzag tag)) (zigzag count)) in
  let id = ref prev and off = ref 0 in
  for r = first to first + count - 1 do
    let i = Array.unsafe_get ids r and o = Array.unsafe_get offs r in
    pos := put b (put b !pos (zigzag (i - !id))) (zigzag (o - !off));
    id := i;
    off := o
  done;
  !pos

let rec size_unsigned acc n =
  if n lsr 7 = 0 then acc else size_unsigned (acc + 1) (n lsr 7)

let encoded_size n = size_unsigned 1 (zigzag n)

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
