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

    The pack keeps no chunk byte in memory: its key table is flat arrays
    (key, frame start, body offset, body length, a CRC-checked bit) in
    append order, behind an open-addressing int table, so resident memory
    is O(chunks), not O(pack). Opening streams the file front to back
    through the pack's one buffer of {!read_buffer_size} bytes, reading
    each byte once and allocating nothing the size of the pack. Chunk
    bytes are read back positionally ([Ickpt_core.Vfs.read_into]) into
    the same buffer: {!read_many} reads each run of nearby frames with
    one call.

    Every frame is CRC-checked once, before any of its bytes are used:
    - on open ({!open_}), the frame headers are walked (magic, version,
      key, length, the frame inside the file). Frames that end past the
      [committed] length — the pack length named by the newest committed
      index entry — are CRC-checked there and then: that is the region a
      crash mid-append can leave torn or garbled. The first frame that
      does not walk or fails that check truncates the file
      ({!cut_bytes}). Frames before [committed] were synced before any
      committed entry named them; their CRC is checked on first use;
    - on first use: a {!read}/{!read_many}, a {!resolve} hit compared
      against new bytes, or a {!stage_rewrite} copy — from the bytes that
      read fetched. A mismatch there is {!Ickpt_stream.In_stream.Corrupt}
      naming the chunk; the file is not cut, so every other chunk stays
      readable;
    - on {!append_batch}, after the write and sync, each new frame is
      decoded and checked from the batch's own bytes (a self-check of the
      encoder); it is never checked again;
    - {!reload} checks every frame at once.

    So no unchecked byte reaches a decoder, a dedup comparison, an
    integrity check or a GC rewrite. {!chunk_len}, {!mem} and {!keys} read
    only the table.

    All file access goes through {!Ickpt_core.Vfs}. *)

type t

val read_buffer_size : int
(** Bytes of the pack's one read buffer: {!open_} and {!reload} stream
    the file through it, and {!read_many} reads runs of up to this many
    bytes into it. *)

val open_ : ?vfs:Ickpt_core.Vfs.t -> ?committed:int -> string -> t
(** Open the pack at the given path (a missing file is an empty pack,
    created by the first append), truncating any torn tail. Frames ending
    at or before [committed] (capped at the file size; default 0, every
    frame) are CRC-checked on first use instead of now. *)

val reload : t -> unit
(** Re-walk the file, CRC-checking every frame, and rebuild the key
    table — used after a GC rewrite commits. *)

val cut_bytes : t -> int
(** Bytes the last {!open_} or {!reload} cut off a torn tail (0 when the
    file was intact). *)

val path : t -> string

val mem : t -> int -> bool

val read : t -> int -> string
(** Chunk body by key ({!read_many} of one key).
    @raise Not_found for an unknown key.
    @raise Ickpt_stream.In_stream.Corrupt if its frame fails its CRC. *)

val read_many : t -> int array -> string array
(** Chunk bodies by key, aligned with the keys. The frames are read in
    file order into the pack's one buffer, one read per run of frames
    whose gaps are at most 4 KiB and that fit the buffer together; each
    frame not yet CRC-checked is checked from those bytes.
    @raise Not_found if any key is unknown (nothing is read).
    @raise Ickpt_stream.In_stream.Corrupt naming the first chunk, in file
    order, whose frame fails its CRC, or if the file no longer holds a
    frame the table names. *)

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
  | Dup of int  (** byte-identical chunk already stored, or earlier in the batch *)
  | Fresh of { key : int; attempt : int }
      (** not stored yet; store it under [key]. [attempt = 0] is the plain
          content key; [attempt > 0] means the content key (and any earlier
          salted keys) collided with {e different} bytes and [key] is the
          [attempt]-th {!Chunk.salted_key} — the graceful-degradation path a
          shared multi-tenant pack takes instead of refusing the append. *)

val resolve : t -> (int * string) list -> resolution list
(** [resolve t batch] resolves one batch of [(key, data)] chunks, where
    [key] is the content key of [data] ({!Chunk.key_of}), to the keys they
    live (or should live) under, in order: every key hit is byte-verified
    and the salt ladder climbed past collisions. The stored bytes of the
    batch's content-key hits come from one {!read_many}. A [Fresh] chunk
    counts as stored for the rest of the batch, so a later copy of it is a
    [Dup]. Does not write.
    @raise Ickpt_stream.In_stream.Corrupt if a hit's frame fails its CRC.
    @raise Failure if all [1 + ]{!Chunk.max_salt_attempts} keys collide
    (cryptographically unreachable). *)

val stage_rewrite : t -> keep:(int -> bool) -> string * int
(** Write a pack containing only the kept chunks (in their original order)
    to the staging path ({!Ickpt_core.Vfs.temp_of}), sync it, and
    return that path and its length. The kept frames are read as
    {!read_many} reads them, one call per run, and written one frame per
    write.
    @raise Ickpt_stream.In_stream.Corrupt if a kept chunk fails its CRC
    (nothing is renamed). The live pack and its key table are not touched;
    the caller commits by renaming the staged file over {!path} and
    calling {!reload}. *)
