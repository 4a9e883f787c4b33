(** Output stream into which checkpoint records are written.

    This is the analog of the paper's [OutputStream] (a [DataOutputStream]
    composed with a [ByteArrayOutputStream]): checkpoints are built in memory
    and committed to stable storage separately (see [Ickpt_cas.Store]).

    Two flavours exist:
    - a {e buffered} stream that accumulates bytes ({!create}) in one
      growable byte buffer: a write makes one capacity check, then stores
      unchecked, and allocates nothing unless the buffer doubles;
    - a {e sink} that counts bytes without storing them ({!sink}), used to
      measure pure traversal/encoding cost and for size estimation. *)

type t

val create : ?initial_size:int -> unit -> t
(** A fresh buffered stream. *)

val sink : unit -> t
(** A stream that discards data but still counts {!size}. *)

val is_sink : t -> bool

val write_int : t -> int -> unit
(** Varint-encoded signed integer (the workhorse: field values and ids). *)

val write_run :
  t -> tag:int -> ids:int array -> offs:int array -> first:int -> count:int ->
  prev:int -> unit
(** A run of the [count] records from [first] on, as a directory codes
    it: {!write_int} of [tag], of [count], then per record of its id less
    the previous record's ([prev] before the first) and of its offset
    less the previous record's ([0] before the first). One capacity check
    and one call for the run.
    @raise Invalid_argument unless the records lie in both arrays. *)

val write_byte : t -> int -> unit
(** Single raw byte; [n] is truncated to 8 bits. *)

val write_fixed32 : t -> int -> unit
(** Little-endian 4-byte unsigned value, for headers and checksums. *)

val write_string : t -> string -> unit
(** Length-prefixed string. *)

val write_substring : t -> string -> pos:int -> len:int -> unit
(** {!write_string} of the [len] bytes of a string at [pos], not copied
    out first. *)

val size : t -> int
(** Number of bytes written so far. *)

val contents : t -> string
(** All bytes written so far.
    @raise Invalid_argument on a sink stream. *)

val reset : t -> unit
(** Forget all written data; [size] returns to 0. A buffered stream keeps
    its buffer, so writing the same amount again allocates nothing. *)

val framed : t -> magic:int -> version:int -> (t -> unit) -> unit
(** Append one checksummed record-file frame: [magic] (fixed32),
    [version] (byte), whatever the callback writes, then the CRC-32 of
    the frame's bytes so far (fixed32). Frames appended back to back form
    a record file's bytes; {!In_stream.framed} reads one back.
    @raise Invalid_argument on a sink stream (there are no bytes to
    checksum). *)
