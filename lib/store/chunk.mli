(** Splitting segment bodies into content-addressed chunks.

    A chunk is a run of consecutive {e whole} object records from one
    segment body — boundaries always fall on record boundaries, never
    inside one. Boundaries are placed every [records_per_chunk] records
    (counted from the start of the body), so two bodies that share a run of
    identical records at the same record index produce byte-identical
    chunks there even when earlier records changed length (varints make
    byte-offset-based chunking useless for dedup; record-index-based
    chunking is stable).

    The chunk key is the {!Ickpt_stream.Hash64} of the chunk bytes — equal
    bytes always give equal keys, which is what the store dedups on.

    A chunk is a {e slice} of the body it was split from, not a copy: the
    write path hashes, compares, CRCs and appends the bytes where they
    lie, and its directory is one flat int array. *)

type t = {
  key : int;  (** {!Ickpt_stream.Hash64.sub} of the slice *)
  src : string;  (** the string the chunk is a slice of *)
  off : int;  (** where the chunk's bytes start in [src] *)
  len : int;  (** how many bytes it has: whole records, concatenated *)
  records : int array;
      (** flat [(rec_id, offset of the record within the chunk)] pairs,
          in write order: record [r]'s id at [2r], its offset at [2r+1] *)
}

val default_records_per_chunk : int
(** 16 — small enough that a localized mutation dirties one or two chunks,
    large enough that the per-chunk index overhead stays a few percent. *)

val key_of : string -> int
(** The content key of raw chunk bytes (= {!Ickpt_stream.Hash64.string}). *)

val of_string : string -> t
(** The whole string as one chunk, keyed by its content, with no records:
    how a caller holding bare chunk bytes hands them to the pack. *)

val equal_sub : string -> int -> string -> int -> int -> bool
(** [equal_sub a aoff b boff len]: are [a.[aoff .. aoff+len-1]] and
    [b.[boff .. boff+len-1]] the same bytes? [false] when either window is
    not inside its string. Compared in place, 32 bytes at a time while
    they agree, then eight, then byte by byte. *)

val common_prefix : string -> int -> string -> int -> int -> int
(** [common_prefix a aoff b boff len]: how many of the [len] bytes at
    [aoff] in [a] and at [boff] in [b] agree before the first that
    differs ([len] when all do). Compared as {!equal_sub} compares.
    @raise Invalid_argument when either window is not inside its
    string. *)

val max_salt_attempts : int
(** 8 — the rehash ladder a 63-bit collision climbs before the store gives
    up (probability of needing even the second rung is negligible). *)

val salted_key : t -> attempt:int -> int
(** The [attempt]-th fallback key for chunk bytes whose content key is
    already taken by different bytes (a {!Ickpt_stream.Hash64} collision):
    the hash of a salt prefix plus the bytes. Deterministic, so a reopened
    store re-derives the same ladder and dedups salted chunks too.
    @raise Invalid_argument unless [1 <= attempt <= max_salt_attempts]. *)

val key_matches : int -> t -> bool
(** [key_matches key c] — is [key] a legitimate stored key for [c]'s
    bytes: their content key or any rung of the salt ladder? The integrity
    checks use this so salted chunks verify like any other. *)

val split :
  ?records_per_chunk:int -> Ickpt_runtime.Schema.t -> string -> t list
(** Split a segment body. The empty body yields [[]]; every other body
    yields slices of it that tile it, in order: the body is framed
    ({!Ickpt_core.Restore.frames}), then cut ({!of_frames}); no byte of it
    is copied.
    @raise Invalid_argument if [records_per_chunk < 1].
    @raise Ickpt_core.Restore.Error on an unknown class id in the body.
    @raise Ickpt_stream.In_stream.Corrupt on a truncated record. *)

val of_frames :
  ?records_per_chunk:int -> string -> ids:int array -> offs:int array ->
  n:int -> t list
(** [of_frames body ~ids ~offs ~n] cuts a body whose [n] records are
    known: record [r < n] has id [ids.(r)] and starts at [offs.(r)]
    (ascending, the first at 0), and ends where the next starts or the
    body ends; cells from [n] on are ignored. The chunks are cut every
    [records_per_chunk] records, without reading a record.
    @raise Invalid_argument if [records_per_chunk < 1], or if either
    array is shorter than [n]. *)
