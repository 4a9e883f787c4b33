(** The epoch core shared by {!Store} (one chain, one index file) and
    [Ickpt_service.Service] (one chain per tenant, multiplexed per-shard
    index files): a chain's committed state ({!chain}), how a batch of
    epochs is committed as pack bodies plus the index entries that locate
    them, and which entries form a valid chain. Each rule has its one home
    here but continuity ({!Ickpt_core.Chain.continuity}). A store holds
    one {!chain}, a service one per open tenant; only {!admit},
    {!commit} and {!rebase} move it. *)

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

(** {1 Chains} *)

type chain
(** One chain's state: its schema, its committed entries (oldest first),
    the progress of its taken epochs (the epoch it expects next, its
    incremental body bytes since its newest full, and whether a full is
    due), the stream its takes write into, and its committed {e image}:
    what it has committed since its newest full, as it committed it —
    that full's body with its records' ids, offsets and places, and each
    incremental's since. A fold lays the incrementals over the full by
    reference and copies no record. The image is missing until a full
    commits in this session (after a reopen, a gc or an evict), or once
    the incrementals' bodies since its full would outgrow that full's;
    the chain's next fold then reads the pack as a restore does
    ({!Dir.live}).

    A lost take cleared the modified flags of a heap that lives on in the
    process, whatever store or service value took it: so once a
    {!commit} of the chain fails, its next epoch must be full, in this
    process, across reopens, until a full one commits. The process keeps
    this per [file] (a store's index file, a service's root) and [id] in
    it (0, a tenant id). *)

val chain :
  file:string -> id:int -> Ickpt_runtime.Schema.t -> Epoch_index.entry list ->
  chain
(** The chain [id] of [file] with these committed entries, resuming where
    they end without reading a chunk: a full is due if a commit of that
    chain failed earlier in the process and no full has committed on it
    since. *)

val schema : chain -> Ickpt_runtime.Schema.t

val entries : chain -> Epoch_index.entry list
(** The committed entries, oldest first. *)

val take :
  Policy.t -> chain ->
  (Segment.kind -> Ickpt_stream.Out_stream.t ->
   Ickpt_runtime.Model.obj list -> unit) ->
  Ickpt_runtime.Model.obj list -> Segment.t
(** [take policy c write roots]: the chain's next segment, of the kind
    [policy] picks ({!Ickpt_core.Policy.decide}) — full while a full is
    due — its body recorded by [write kind] into the chain's stream,
    which is reset first: a stream kept across takes is grown once, not
    per take. Neither admits nor appends it. *)

val admit : chain -> Segment.t -> string option
(** Why the segment cannot extend the chain's taken epochs, in words: a
    break of {!Ickpt_core.Chain.continuity}, or an incremental while a
    full is due. [None] when it can, and then the chain's progress has
    moved past it (a full clears a due full). Made under the lock commits
    of the chain are made under, so an epoch is never admitted past a
    lost batch. *)

val rebase : chain -> Epoch_index.entry list -> unit
(** The chain's committed entries are now these (a gc rewrote them, from
    a full at or before its newest one): its progress stays, its image is
    dropped. *)

(** {1 Committing} *)

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

(** One epoch to commit. *)
type item = {
  chain : chain;  (** the chain it extends *)
  kind : Segment.kind;
  epoch : int;
  roots : int list;
  body : body;
}

val item : chain -> records_per_chunk:int -> Segment.t -> item
(** The segment as {!commit} takes it, its framing walked once ([Framed])
    with the chain's schema. Its arrays are sized by the record count of
    the chain's newest committed entry of the segment's kind: a full's by
    that count, an incremental's by a quarter more. A full on a chain
    with an image is framed in one pass against it: where the bytes at a
    record boundary equal the chain's live record there, that comparison
    frames the record; only the records that differ are framed by the
    schema. The entries and image read are a snapshot, so this may run
    outside the lock commits are made under. Admits nothing.
    @raise Ickpt_core.Restore.Error on an unknown class id.
    @raise Ickpt_stream.In_stream.Corrupt on a truncated record. *)

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
  'a index -> Vfs.t -> path:string -> Pack.t -> item list -> 'a committed
(** Commit a batch of epochs to the index file at [path].

    A [Framed] full item whose chain has committed entries is {e folded}:
    each of its body's records is compared byte for byte with the chain's
    newest committed record of the same id. The comparison {!item} made
    against the image is used if the image has not moved since; otherwise
    the body is compared again with the image, in the same one pass, or,
    if the chain has none, with its live records as a restore reads them:
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
    Once the batch is committed, each item joins its chain's entries, in
    batch order, and the chain's image moves on: a full starts a new one
    (and clears a due full), a [Framed] incremental is laid over it, and a
    [Split] item drops it.

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
    commit reports none; it sets each item's chain back to its committed
    entries with a full due, and re-raises. Continuity is not checked here
    ({!admit}). The empty batch performs no I/O. *)

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

val id_index : int array -> int -> int
(** [id_index ids id]: the index of [id]'s first occurrence in [ids], or
    [-1], found as a fold finds an id among a full's: [id_index ids]
    indexes them once, as an array of positions when they are dense, else
    as the positions sorted by id, searched by halving. *)
