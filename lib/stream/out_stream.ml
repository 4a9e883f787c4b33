type t =
  | Buffered of Buffer.t
  | Sink of int ref

let create ?(initial_size = 4096) () = Buffered (Buffer.create initial_size)

let sink () = Sink (ref 0)

let is_sink = function Sink _ -> true | Buffered _ -> false

let write_int t n =
  match t with
  | Buffered buf -> Varint.write buf n
  | Sink count -> count := !count + Varint.encoded_size n

let write_byte t n =
  match t with
  | Buffered buf -> Buffer.add_char buf (Char.unsafe_chr (n land 0xff))
  | Sink count -> incr count

let write_fixed32 t n =
  match t with
  | Buffered buf ->
      Buffer.add_char buf (Char.unsafe_chr (n land 0xff));
      Buffer.add_char buf (Char.unsafe_chr ((n lsr 8) land 0xff));
      Buffer.add_char buf (Char.unsafe_chr ((n lsr 16) land 0xff));
      Buffer.add_char buf (Char.unsafe_chr ((n lsr 24) land 0xff))
  | Sink count -> count := !count + 4

let write_substring t s ~pos ~len =
  match t with
  | Buffered buf ->
      Varint.write buf len;
      Buffer.add_substring buf s pos len
  | Sink count -> count := !count + Varint.encoded_size len + len

let write_string t s = write_substring t s ~pos:0 ~len:(String.length s)

let size = function
  | Buffered buf -> Buffer.length buf
  | Sink count -> !count

let contents = function
  | Buffered buf -> Buffer.contents buf
  | Sink _ -> invalid_arg "Out_stream.contents: sink stream"

let reset = function
  | Buffered buf -> Buffer.clear buf
  | Sink count -> count := 0

let framed ~magic ~version write =
  let d = create () in
  write_fixed32 d magic;
  write_byte d version;
  write d;
  write_fixed32 d (Crc32.string (contents d));
  contents d
