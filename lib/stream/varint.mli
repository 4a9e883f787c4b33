(** Variable-length integer encoding (LEB128 with zigzag for signed values).

    Integers are first zigzag-mapped so that small negative values also get
    short encodings, then emitted base-128, least-significant group first.
    The encoding covers the full range of OCaml's native [int]. *)

val zigzag : int -> int
(** [zigzag n] maps signed to unsigned: 0, -1, 1, -2, ... become 0, 1, 2, 3. *)

val unzigzag : int -> int
(** Inverse of {!zigzag}. *)

val max_size : int
(** The longest encoding of a native int: 9 bytes on 64-bit platforms. *)

val write : Buffer.t -> int -> unit
(** [write buf n] appends the zigzag-LEB128 encoding of [n] to [buf]. *)

val unsafe_set : bytes -> int -> int -> int
(** [unsafe_set b pos n] writes the encoding {!write} emits for [n] into
    [b] at [pos] and returns the position just past it. Unchecked: the
    caller guarantees [pos + max_size <= Bytes.length b]. *)

val unsafe_set_run :
  bytes -> int -> tag:int -> ids:int array -> offs:int array -> first:int ->
  count:int -> prev:int -> int
(** [unsafe_set_run b pos ~tag ~ids ~offs ~first ~count ~prev] writes a
    run of the [count] records from [first] on into [b] at [pos]: [tag],
    [count], then per record its id less the previous record's ([prev]
    before the first) and its offset less the previous record's ([0]
    before the first). Returns the position just past it. The bytes are
    those of {!unsafe_set} called per value. Unchecked: the caller
    guarantees the records lie in both arrays and [pos + 2 * (count + 1)
    * max_size <= Bytes.length b]. *)

val encoded_size : int -> int
(** [encoded_size n] is the number of bytes {!write} emits for [n]. *)

val read : string -> int -> int * int
(** [read s pos] decodes a varint at [pos], returning [(value, next_pos)].
    @raise Invalid_argument if the encoding runs past the end of [s]. *)
