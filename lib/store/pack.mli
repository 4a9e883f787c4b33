(** The chunk pack: one append-only file holding every stored chunk, each
    in a self-describing checksummed frame (same framing discipline as
    {!Ickpt_core.Segment}):

    {v
    magic   fixed32  "ICPK"
    version byte
    key     varint   content key ({!Ickpt_stream.Hash64})
    len     varint   chunk length in bytes
    body    bytes
    crc     fixed32  CRC-32 of everything above
    v}

    Nothing is copied to keep the chunks at hand: the key table maps each
    key to a slice of an immutable string — the bytes read at open, or the
    encoded frames of the batch that appended the chunk. Opening costs one
    read of the file and no second buffer; an append costs O(batch), not
    O(pack). A chunk read copies the chunk's bytes out of its slice;
    {!resolve} compares a key hit against them in place.

    Every frame is CRC-checked once, when its slice enters the table:
    - on open ({!open_}, {!reload}), every frame of the file is decoded
      and checked; a torn or corrupt tail — the normal outcome of a crash
      mid-append — is truncated away, and anything before it is intact by
      CRC;
    - on {!append_batch}, after the write and sync, each new frame is
      decoded and checked from the batch's own bytes (a self-check of the
      encoder).

    All file access goes through {!Ickpt_core.Vfs}. *)

type t

val open_ : ?vfs:Ickpt_core.Vfs.t -> string -> t
(** Open (creating if missing) the pack at the given path, truncating any
    torn tail. *)

val reload : t -> unit
(** Re-read the file and rebuild the key table — used after a GC rewrite
    commits. The bytes the vfs returned are only ever read. *)

val path : t -> string

val mem : t -> int -> bool

val read : t -> int -> string
(** Chunk body by key. @raise Not_found for an unknown key. *)

val chunk_len : t -> int -> int
(** Body length by key. @raise Not_found for an unknown key. *)

val keys : t -> int list
(** Every stored key, in append order. *)

val length : t -> int
(** Number of stored chunks. *)

val physical_bytes : t -> int
(** Bytes of intact frames on disk (frame overhead included). *)

val append_batch : t -> (int * string) list -> int
(** Append the given [(key, body)] chunks in one writer session and sync;
    they are durable when this returns. Keys already present are a
    programming error ({!Invalid_argument}). Returns the number of bytes
    appended. The empty batch performs no I/O. *)

type resolution =
  | Dup of int  (** byte-identical chunk already stored (or pending) here *)
  | Fresh of { key : int; attempt : int }
      (** not stored yet; store it under [key]. [attempt = 0] is the plain
          content key; [attempt > 0] means the content key (and any earlier
          salted keys) collided with {e different} bytes and [key] is the
          [attempt]-th {!Chunk.salted_key} — the graceful-degradation path a
          shared multi-tenant pack takes instead of refusing the append. *)

val resolve :
  t -> pending:(int, string) Hashtbl.t -> key:int -> string -> resolution
(** [resolve t ~pending ~key data] resolves chunk bytes [data], whose
    content key ({!Chunk.key_of}) is [key], to the key they live (or should
    live) under,
    byte-verifying every key hit and climbing the salt ladder past
    collisions. [pending] carries fresh chunks of the same batch that are
    not in the pack yet; a [Fresh] result is added to it. Does not write.
    @raise Failure if all [1 + ]{!Chunk.max_salt_attempts} keys collide
    (cryptographically unreachable). *)

val stage_rewrite : t -> keep:(int -> bool) -> string
(** Write a pack containing only the kept chunks (in their original order)
    to the staging path ({!Ickpt_core.Storage.temp_of}), sync it, and
    return that path. The live pack and its key table are not touched;
    the caller commits by renaming the staged file over {!path} and
    calling {!reload}. *)
