(** The chunk pack: one append-only file holding every stored chunk, each
    in a self-describing checksummed frame:

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

    Every frame is CRC-checked once, before any of its bytes are used:
    - on open ({!open_}), the frame headers are walked (magic, version,
      key, length, the frame inside the file). Frames that end past the
      [committed] length — the pack length named by the newest committed
      index entry — are CRC-checked there and then: that is the region a
      crash mid-append can leave torn or garbled. The first frame that
      does not walk or fails that check truncates the file. Frames before
      [committed] were synced before any committed entry named them;
      their CRC is checked on first use;
    - on first use: a {!read}, a {!resolve} hit compared against new
      bytes, or a {!stage_rewrite} copy. A mismatch there is
      {!Ickpt_stream.In_stream.Corrupt} naming the chunk; the file is not
      cut, so every other chunk stays readable;
    - on {!append_batch}, after the write and sync, each new frame is
      decoded and checked from the batch's own bytes (a self-check of the
      encoder); it is never checked again;
    - {!reload} checks every frame at once.

    So no unchecked byte reaches a decoder, a dedup comparison, an
    integrity check or a GC rewrite. {!chunk_len}, {!mem} and {!keys} read
    only the walked headers.

    All file access goes through {!Ickpt_core.Vfs}. *)

type t

val open_ : ?vfs:Ickpt_core.Vfs.t -> ?committed:int -> string -> t
(** Open (creating if missing) the pack at the given path, truncating any
    torn tail. Frames ending at or before [committed] (capped at the file
    size; default 0, every frame) are CRC-checked on first use instead of
    now. *)

val reload : t -> unit
(** Re-read the file, CRC-checking every frame, and rebuild the key
    table — used after a GC rewrite commits. The bytes the vfs returned
    are only ever read. *)

val path : t -> string

val mem : t -> int -> bool

val read : t -> int -> string
(** Chunk body by key.
    @raise Not_found for an unknown key.
    @raise Ickpt_stream.In_stream.Corrupt if its frame fails its CRC. *)

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
    @raise Ickpt_stream.In_stream.Corrupt if a hit's frame fails its CRC.
    @raise Failure if all [1 + ]{!Chunk.max_salt_attempts} keys collide
    (cryptographically unreachable). *)

val stage_rewrite : t -> keep:(int -> bool) -> string * int
(** Write a pack containing only the kept chunks (in their original order)
    to the staging path ({!Ickpt_core.Vfs.temp_of}), sync it, and
    return that path and its length.
    @raise Ickpt_stream.In_stream.Corrupt if a kept chunk fails its CRC
    (nothing is renamed). The live pack and its key table are not touched;
    the caller commits by renaming the staged file over {!path} and
    calling {!reload}. *)
