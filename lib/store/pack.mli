(** The chunk pack: one append-only file of bare chunk bodies, back to
    back. The pack describes nothing itself: where each chunk lies, how
    long it is and its CRC-32 are in the index entry that first committed
    it ({!Epoch_index.iter_located}), so the entries are the pack's table
    of contents.

    The pack keeps no chunk byte in memory: its key table is flat arrays
    (key, body offset, body length, CRC-32, a CRC-checked bit), behind an
    open-addressing int table, so resident memory is O(chunks), not
    O(pack). The table is filled from committed entries only — by
    {!reload} when a store or service opens, and by {!locate} once a
    batch's index write has returned — so the table in a session is the
    one a reopen builds, and no entry can dedup against a chunk no
    committed entry locates. Opening reads no pack byte. Chunk bytes are
    read back positionally ([Ickpt_core.Vfs.read_into]) into the pack's
    one fetch buffer: {!fetch} reads every run of nearby chunks with one
    call, the runs back to back, and hands out each chunk as a slice of
    the buffer. The pack keeps the buffer and grows it to the largest
    fetch (at least {!read_buffer_size} bytes).

    Every chunk this session did not append itself is CRC-checked against
    its entry's CRC once, on first use, before any of its bytes are
    used: a {!fetch} (so a {!read}/{!read_many}), a {!resolve} hit
    compared against new bytes, or a {!stage_rewrite} copy — in place, in
    the fetch buffer. A mismatch is
    {!Ickpt_stream.In_stream.Corrupt} naming the chunk; every other chunk
    stays readable. So no unchecked byte reaches a decoder, a dedup
    comparison, an integrity check or a GC rewrite. {!chunk_len},
    {!chunk_crc}, {!mem} and {!keys} read only the table.

    All file access goes through {!Ickpt_core.Vfs}. *)

type t

val read_buffer_size : int
(** The longest run of chunks read as one window (a longer chunk is a run
    of its own), and the fetch buffer's least size. *)

val open_ : ?vfs:Ickpt_core.Vfs.t -> string -> t
(** The pack at the given path (a missing file is an empty pack, created
    by the first append), with an empty key table. Reads no byte of it. *)

val reload : t -> Epoch_index.entry list -> int option list
(** Rebuild the key table from the given entries' located chunks (the
    first location of a key wins; a malformed entry adds what decoded
    before the fault) and take the file's length anew. Returns, aligned
    with the entries, where each one's located chunks end in the pack
    ({!Epoch_index.located_end}), or [None] for an entry whose located
    chunks do not decode: each entry's chunks are decoded once. The table
    is sized once, from the entries' {!Epoch_index.located_count}s, so
    building it neither grows nor rehashes. Reads no byte of the pack. *)

val locate : t -> checked:bool -> Epoch_index.entry -> int
(** Add one committed entry's located chunks to the table and return
    where they end in the pack. [checked] says their CRCs were just
    computed from the bytes this session appended, so their reads skip
    the check.
    @raise Ickpt_stream.In_stream.Corrupt if they do not decode. *)

val cut : t -> committed:int -> unit
(** Truncate the file to [committed] bytes — the end of the last chunk a
    committed entry locates — if it is longer: the bytes past it belong
    to no committed epoch. {!cut_bytes} tells how many went. *)

val cut_bytes : t -> int
(** Bytes the last {!cut} took off (0 when the file was not longer, and
    after a {!reload}). *)

val mem : t -> int -> bool

val fetch : t -> int array -> string * int array
(** [fetch t keys] reads the chunks under [keys] into the pack's fetch
    buffer and returns it with, aligned with the keys, where each body
    starts in it: key [i]'s body is the slice of length
    [chunk_len t keys.(i)] at [starts.(i)]. The chunks are read in file
    order, in one read call ([Ickpt_core.Vfs.read_into]) of runs of chunks
    whose gaps are at most 4 KiB and that fit {!read_buffer_size}
    together, the runs back to back (a key
    named twice is read once when its copies share a run); each chunk not
    yet CRC-checked is checked there, in place, before this returns. No
    chunk is copied. The buffer is the pack's and the next read of the
    pack overwrites it: a caller decodes or copies what it needs before
    that, and keeps neither the buffer nor a slice of it.
    @raise Not_found if any key is unknown (nothing is read).
    @raise Ickpt_stream.In_stream.Corrupt naming the first chunk, in file
    order, that fails its CRC, or if the file no longer holds a chunk the
    table names. *)

val read : t -> int -> string
(** Chunk body by key, copied out of a {!fetch} of one key.
    @raise Not_found for an unknown key.
    @raise Ickpt_stream.In_stream.Corrupt if it fails its CRC. *)

val read_many : t -> int array -> string array
(** Chunk bodies by key, aligned with the keys: one {!fetch}, each body
    then copied out of the buffer into a string of its own.
    @raise Not_found if any key is unknown (nothing is read).
    @raise Ickpt_stream.In_stream.Corrupt as {!fetch}. *)

val chunk_len : t -> int -> int
(** Body length by key. @raise Not_found for an unknown key. *)

val chunk_crc : t -> int -> int
(** CRC-32 of the body, as its entry recorded it.
    @raise Not_found for an unknown key. *)

val keys : t -> int list
(** Every located key, in the order the entries located them. *)

val length : t -> int
(** Number of located chunks. *)

val physical_bytes : t -> int
(** The file's length, as of the last open, reload, cut or append. *)

val append : t -> Chunk.t list -> int
(** Append the given chunks' bytes, back to back, in one write and sync:
    their slices are blitted into one buffer, so nothing else is copied.
    They are durable when this returns. Returns the offset the first one starts at: the file's
    length before the write, read from the file (not from the table), so
    a write that landed but whose sync raised moves later batches on. The
    table is not touched: the caller {!locate}s the entry naming the
    bodies once that entry is committed. The empty batch writes
    nothing. *)

type resolution =
  | Dup of int  (** byte-identical chunk already stored, or earlier in the batch *)
  | Fresh of { key : int; attempt : int }
      (** not stored yet; store it under [key]. [attempt = 0] is the plain
          content key; [attempt > 0] means the content key (and any earlier
          salted keys) collided with {e different} bytes and [key] is the
          [attempt]-th {!Chunk.salted_key} — the graceful-degradation path a
          shared multi-tenant pack takes instead of refusing the append. *)

val resolve : t -> Chunk.t list -> resolution list
(** [resolve t batch] resolves one batch of chunks, each keyed by its
    content ([Chunk.t.key]), to the keys they live (or should live) under,
    in order: every key hit is byte-verified and the salt ladder climbed
    past collisions. Every comparison is in place: a chunk's slice against
    the fetch buffer holding the stored chunk (the batch's content-key
    hits are fetched by one {!fetch}) or against an
    earlier chunk's slice. A [Fresh] chunk
    counts as stored for the rest of the batch, so a later copy of it is a
    [Dup]. Does not write.
    @raise Ickpt_stream.In_stream.Corrupt if a hit fails its CRC.
    @raise Failure if all [1 + ]{!Chunk.max_salt_attempts} keys collide
    (cryptographically unreachable). *)

val stage_rewrite : t -> int list list -> string
(** Write the bodies of the given keys, group after group and in order
    within each, to the staging path ({!Ickpt_core.Vfs.temp_of}), one
    write per body, sync it, and return that path. Each
    group is read as one {!read_many}.
    @raise Ickpt_stream.In_stream.Corrupt if a chunk fails its CRC
    (nothing is renamed). The live pack and its key table are not
    touched; the caller commits by renaming the staged file over the
    pack and calling {!reload}. *)
