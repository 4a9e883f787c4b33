(** Input stream over a checkpoint blob, the mirror of {!Out_stream}. *)

type t

exception Corrupt of string
(** Raised when decoding runs past the end of input or a structural
    expectation fails; the message says what was being decoded. *)

val of_string : string -> t

val of_string_at : string -> pos:int -> t
(** Start reading at [pos] without copying. *)

val pos : t -> int

val remaining : t -> int

val at_end : t -> bool

val read_int : t -> int
(** @raise Corrupt on truncated input. *)

val read_byte : t -> int

val read_fixed32 : t -> int

val read_string : t -> string

val skip : t -> int -> unit
(** Advance past [n] bytes without copying them.
    @raise Corrupt if [n] is negative or fewer than [n] bytes remain. *)

val expect_byte : t -> int -> string -> unit
(** [expect_byte t b what] reads one byte and checks it equals [b].
    @raise Corrupt mentioning [what] otherwise. *)
