(** Input stream over a checkpoint blob, the mirror of {!Out_stream}. *)

type t

exception Corrupt of string
(** Raised when decoding runs past the end of input or a structural
    expectation fails; the message says what was being decoded. *)

val of_string : string -> t

val of_string_at : string -> pos:int -> t
(** Start reading at [pos] without copying. *)

val pos : t -> int

val source : t -> string
(** The string being read, whole. *)

val remaining : t -> int

val at_end : t -> bool

val read_int : t -> int
(** @raise Corrupt on truncated input. *)

val read_ints : t -> int array -> int -> unit
(** [read_ints t dst n] decodes the next [n] varints into
    [dst.(0 .. n-1)], in one loop: what [n] calls of {!read_int} would
    read, with the same error.
    @raise Corrupt on truncated input (the varints before the cut are
    written).
    @raise Invalid_argument unless [0 <= n <= Array.length dst]. *)

val skip_varints : t -> int -> unit
(** Advance past [n] varints without decoding them.
    @raise Corrupt on truncated input, as {!read_int} would. *)

val window : t -> pos:int -> len:int -> unit
(** Move the cursor to [pos] and end the readable bytes at [pos + len]:
    a read past it is {!Corrupt} even where the string goes on. One stream
    serves many reads of slices at scattered offsets this way, without
    copying or allocating.
    @raise Invalid_argument unless [0 <= pos], [0 <= len] and
    [pos + len <= String.length (source t)]. *)

val read_byte : t -> int

val read_fixed32 : t -> int

val read_string : t -> string

val skip : t -> int -> unit
(** Advance past [n] bytes without copying them.
    @raise Corrupt if [n] is negative or fewer than [n] bytes remain. *)

val expect_byte : t -> int -> string -> unit
(** [expect_byte t b what] reads one byte and checks it equals [b].
    @raise Corrupt mentioning [what] otherwise. *)

val framed :
  magic:int -> version:int -> what:string -> (t -> 'a) -> string -> pos:int ->
  'a * int
(** Decode one {!Out_stream.framed} frame at [pos]: check [magic] and
    [version], run [read] over the payload, check the CRC. Returns the
    payload and the offset just past the frame.
    @raise Corrupt (naming [what]) on a bad magic, version or checksum, or
    truncation. *)

val fold_intact :
  (string -> pos:int -> 'a * int) -> string -> ('b -> 'a -> 'b) -> 'b ->
  'b * int
(** [fold_intact decode data f init] decodes frames back to back from
    offset 0, folding [f] over every intact one (file order), and returns
    the result with the offset of the first byte that does not decode —
    the end of [data] when all of it does. {!Corrupt} or
    [Invalid_argument] from [decode] ends the prefix. The one loop every
    record file (pack, epoch index, tenant catalog, service meta) is read
    back with; the caller decides whether to truncate. *)

val intact_prefix : (string -> pos:int -> 'a * int) -> string -> 'a list * int
(** {!fold_intact} collecting the intact items, in file order. *)
