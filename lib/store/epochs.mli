(** The epoch core shared by {!Store} (one chain, one index file) and
    [Ickpt_service.Service] (one chain per tenant, multiplexed per-shard
    index files): how a batch of epochs is committed as pack bodies plus
    the index entries that locate them, and which entries form a valid
    chain. Each rule has its one home here but continuity
    ({!Ickpt_core.Chain.continuity}). *)

open Ickpt_core

type collision = {
  col_epoch : int;  (** epoch whose append hit the collision *)
  col_content_key : int;  (** the chunk's true content key, already taken *)
  col_stored_key : int;  (** the salted key the chunk was stored under *)
  col_attempt : int;  (** which rung of the salt ladder (>= 1) *)
}

(** {1 Chain rules}

    The base a restore, resume or gc starts from is
    {!Epoch_index.newest_full}/{!Epoch_index.since_full}. *)

(** How a kind of index file holds entries: its codec, the chain each
    item belongs to, and how an entry of a chain becomes an item. [decode
    prev] decodes an item whose roots are shared with [prev chain], the
    roots of its chain's previous item, when they are the same ids
    ({!Epoch_index.decode}); [encode] appends an item's frame. *)
type 'a index = {
  decode : (int -> int list) -> string -> pos:int -> 'a * int;
  encode : Ickpt_stream.Out_stream.t -> 'a -> unit;
  chain : 'a -> int;
  entry : 'a -> Epoch_index.entry;
  make : int -> Epoch_index.entry -> 'a;
}

val plain : Epoch_index.entry index
(** A store's index: one chain. *)

val mux : Epoch_index.mux_entry index
(** A service shard's index: one chain per tenant. *)

(** {1 Committing} *)

type image
(** A chain's committed image: what it has committed since its newest
    full, as it committed it — that full's body with its records' ids,
    offsets and places, and each incremental's since, added by
    {!commit}. A fold lays the incrementals over the full by reference,
    one int naming the newest record of each id, and copies no record.
    Each store keeps one, a service one per tenant. It moves on only once
    a {!commit} has succeeded, and is missing until a full commits in
    this session (after a reopen, a gc or an evict), or once the
    incrementals' bodies since its full would outgrow that full's; the
    chain's next fold then reads the pack as a restore does
    ({!Dir.live}). *)

val image : unit -> image
(** No image: the chain's next fold reads the pack. *)

val forget : image -> unit
(** Drop the image, as after a gc rewrote the chain's entries. *)

type against
(** What a full body was compared against when it was framed, and the
    outcome. *)

(** A segment body to commit. *)
type body =
  | Split of Chunk.t list
      (** cut already: committed whole, as these chunks, under their keys *)
  | Framed of {
      body : string;
      ids : int array;
      offs : int array;
      n : int;
      records_per_chunk : int;
      against : against;
    }
      (** whole, with its [n] records' ids and offsets in the first [n]
          cells of [ids] and [offs] ({!Ickpt_core.Restore.frames}):
          {!commit} folds it, or cuts it every [records_per_chunk] records
          ({!Chunk.of_frames}) *)

val body :
  Ickpt_runtime.Schema.t -> records_per_chunk:int -> image ->
  Epoch_index.entry list -> Segment.t -> body
(** [body schema ~records_per_chunk image entries seg]: the segment's body
    as {!commit} takes it, its framing walked once ([Framed]). Its arrays
    are sized by the record count of the newest entry of the segment's
    kind among the chain's committed [entries]: a full's by that count,
    an incremental's by a quarter more. A full on a chain with an image is
    framed in one pass against it: where the bytes at a record boundary
    equal the chain's live record there, that comparison frames the
    record; only the records that differ are framed by the schema. The
    image read is a snapshot, so this may run outside the lock commits
    are made under.
    @raise Ickpt_core.Restore.Error on an unknown class id.
    @raise Ickpt_stream.In_stream.Corrupt on a truncated record. *)

(** One epoch to commit. *)
type item = {
  chain : int;  (** the chain it extends: a tenant id; ignored by {!plain} *)
  kind : Segment.kind;
  epoch : int;
  roots : int list;
  body : body;
}

(** What a committed batch wrote. *)
type 'a committed = {
  entries : 'a list;  (** the index items, in batch order *)
  collisions : collision list;  (** salted chunks, in batch order *)
  fresh_chunks : int;  (** chunks appended to the pack *)
  bytes_written : int;  (** pack plus index bytes *)
  index_bytes : int;  (** of them, index bytes *)
}

val min_live_percent : int
(** 50 — a folded full leaves a record in an older chunk only if the
    records it leaves there are at least this percentage of the chunk's
    bytes; otherwise they are copied into its new chunks with the changed
    ones. *)

val commit :
  committed:(int -> Epoch_index.entry list * image) ->
  'a index -> Vfs.t -> path:string -> Pack.t -> item list -> 'a committed
(** Commit a batch of epochs to the index file at [path].

    [committed chain] is the chain's committed entries, oldest first, and
    its image. A [Framed] full item whose chain has committed entries is
    {e folded}: each of its body's records is compared byte for byte with
    the chain's newest committed record of the same id. The comparison
    {!body} made against the image is used if the image has not moved
    since; otherwise the body is compared again with the image, or, if
    the chain has none, with its live records as a restore reads them:
    {!Dir.live}, the directories since its newest full folded and the
    chunks some live record lies in read with one {!Pack.fetch}. Only
    committed state is read, never an item of the same batch. A record
    equal to the live one stays where that one lies. The other records,
    and every record left in an older chunk of which this full would
    reference less than {!min_live_percent} percent of the bytes, are
    copied in body order into new chunks, cut every [records_per_chunk]
    records. The entry is a full with a complete directory
    ({!Epoch_index.entry}[.folded]), and its body is neither split nor
    hashed. A full none of whose records stays, one whose fold meets a
    corrupt chunk or a directory {!Dir.live} refuses, and every other
    item are committed whole, a [Framed] one cut first
    ({!Chunk.of_frames}).
    Once the batch is committed, each chain's image moves on, in batch
    order: a full starts a new one, a [Framed] incremental is laid over
    it, and a [Split] item drops it.

    Then: resolve every new chunk against the pack ({!Pack.resolve}: each
    key hit byte-verified, collisions climbing the salt ladder, and one
    pending table so the batch dedups across its own items), append the
    fresh chunks in one {!Pack.append} (write + sync), then write the
    batch's entries to the index in one write + one sync — the commit
    point of every epoch in it. Each entry locates the fresh chunks it is
    the first to reference, from where the previous entry's ended (the
    first from the pack file's length before the append), and carries its
    directory coded straight from the chunks' records (a folded full's
    from its runs). Only once the index write has returned are the entries
    {!Pack.locate}d, so a failed commit leaves the pack's table as it was
    and a later batch appends those chunks afresh. If the index write or
    its sync raises, the index is truncated back to its length before the
    write, so no torn bytes stay in front of the next batch's entries, and
    the exception is re-raised: none of the batch's epochs is committed. A
    crash before the index sync leaves pack bytes past the committed
    length and a torn index tail, which {!recover} cuts. The result,
    collisions included, exists only once the index is synced, so a failed
    commit reports none. Continuity is not checked here
    ({!Ickpt_core.Chain.continuity}). The empty batch performs no I/O. *)

(** {1 Reopening}

    Reopen is two steps: {!load} every index file sharing a pack (an
    older format is refused before anything is cut), then {!recover}
    them together against it. *)

type 'a loaded
(** An index file's intact entries, decoded (located chunks and
    directories left coded) but not yet checked against a pack. *)

val load : 'a index -> Vfs.t -> string -> 'a loaded
(** Read an index file's intact prefix. Each entry's roots are decoded
    against the previous entry of its chain (its tenant's, in a
    multiplexed file): when they are the same ids the entry holds that
    same list, so a chain whose roots do not change allocates them once.
    Performs no writes.
    @raise Epoch_index.Unsupported_version if the file holds no intact
    entry and begins with an entry header of an older format version. *)

val recover :
  'a index -> Vfs.t -> Pack.t -> 'a loaded list -> ('a list * int) list
(** The committed entries of each loaded index file sharing the pack, and
    each file's length once truncated to them. The pack's table is built
    from every file's entries in one presized pass ({!Pack.reload}),
    which also yields each entry's located end; each file's intact prefix
    is then cut at the first entry that breaks its chain (oldest not full,
    an epoch gap) or does not resolve (its located chunks do not decode or
    end past the pack file, or a chunk it names is located by no entry),
    and the table rebuilt from the kept entries until nothing more is cut
    (on an intact store, the first pass cuts nothing). Finally the pack is
    cut to the largest located end of a kept entry ({!Pack.cut}). No pack
    byte is read, each entry's located chunks are decoded once per pass,
    nothing is re-encoded, and directories are not decoded. *)

val check :
  'a index -> Pack.t -> who:('a -> string option) -> 'a list -> string list
(** Integrity problems of the given entries, per chain: the oldest epoch
    full, epochs contiguous, the chunks each entry locates inside the
    pack, every chunk present, intact by CRC and with bytes matching its
    key, every directory well-formed and each of its records landing on a
    record of its id inside its chunk. Every located chunk is named by the
    entry locating it, so checking every committed entry reads every
    chunk in the table. [who] names an item's chain in the messages
    ([None]: no name). [[]] means consistent. *)

val relocate :
  Pack.t -> Epoch_index.entry list -> Epoch_index.entry list * int list list
(** The entries re-located for a pack rewritten to hold exactly their
    chunks, from offset 0: each chunk on the first entry that references
    it, in first-reference order. Returns the entries and, per entry, the
    keys it now locates — the groups {!Pack.stage_rewrite} writes. *)

(** {1 Reading entries back} *)

val segment : Ickpt_runtime.Schema.t -> Pack.t -> Epoch_index.entry -> Segment.t
(** The exact segment an entry committed: a whole entry's chunks
    concatenate to the original body; a folded full's records, framed by
    the schema, are read where its directory places them, in body order.
    @raise Ickpt_stream.In_stream.Corrupt if a chunk fails its CRC or a
    folded record runs past its chunk. *)

val logical_bytes : Epoch_index.entry list -> int
(** The entries' segment body bytes, summed. *)

(** {1 Taking checkpoints} *)

type progress = {
  next : int option;  (** the epoch the chain expects; [None] when empty *)
  since_full_bytes : int;  (** incremental body bytes since the newest full *)
  full_due : bool;
      (** a taken epoch failed to commit: taking it cleared the heap's
          modified flags, so the chain's next epoch must be full *)
}
(** What {!Ickpt_core.Policy.decide} reads of a chain. *)

val progress : Epoch_index.entry list -> progress
(** One chain's progress, derived from its committed entries (oldest
    first) without reading a chunk. [full_due] is [false]. *)

val failed : Epoch_index.entry list -> progress
(** The progress of a chain whose taken epochs past its committed entries
    were lost to a failed commit: numbered on from the committed entries,
    with [full_due] set. *)

(** A lost take cleared the modified flags of a heap that lives on in the
    process, whatever store or service value took it: the process keeps,
    per chain, that its next epoch must be full until a full one commits.
    A chain is named by a [file] (a store's index file, a service's root)
    and a [chain] in it (0, a tenant id). *)

val mark_due : file:string -> chain:int -> unit
(** A commit of the chain failed: its next epoch must be full, in this
    process, across reopens. *)

val note_commit : file:string -> chain:int -> Segment.kind -> unit
(** An epoch of that kind committed on the chain: a full one clears what
    {!mark_due} set. *)

val resume : file:string -> chain:int -> Epoch_index.entry list -> progress
(** The progress a reopened chain resumes with: {!failed} if a full is
    due for it in this process ({!mark_due}), else {!progress}. *)

val advance : progress -> Segment.t -> progress
(** The progress once the segment extends the chain. A full segment
    clears [full_due]. *)

val refusal : progress -> Segment.t -> string option
(** Why the segment cannot extend a chain of that progress, in words: a
    break of {!Ickpt_core.Chain.continuity}, or an incremental while a
    full is due. [None] when it can. *)

val take :
  Policy.t -> progress -> out:Ickpt_stream.Out_stream.t ->
  (Segment.kind -> Ickpt_stream.Out_stream.t ->
   Ickpt_runtime.Model.obj list -> unit) ->
  Ickpt_runtime.Model.obj list -> Segment.t
(** [take policy p ~out write roots]: the chain's next segment, of the kind
    [policy] picks for [p] — full while [p.full_due] — its body recorded
    by [write kind] into [out], which is reset first: a stream kept across
    takes is grown once, not per take. Appends nothing. *)
