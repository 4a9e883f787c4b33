(** The epoch core shared by {!Store} (one chain, one index file) and
    [Ickpt_service.Service] (one chain per tenant, multiplexed per-shard
    index files): how a batch of epochs is committed as pack frames plus
    index entries, and which entries form a valid chain. Each rule has its
    one home here but continuity ({!Ickpt_core.Chain.continuity}). *)

open Ickpt_core

type collision = {
  col_epoch : int;  (** epoch whose append hit the collision *)
  col_content_key : int;  (** the chunk's true content key, already taken *)
  col_stored_key : int;  (** the salted key the chunk was stored under *)
  col_attempt : int;  (** which rung of the salt ladder (>= 1) *)
}

(** {1 Chain rules} *)

val newest : Epoch_index.entry list -> int option
(** The newest epoch of one chain's entries (oldest first), if any. *)

val newest_full : Epoch_index.entry list -> epoch:int -> int
(** The newest full epoch at or before [epoch] in one chain's entries
    (oldest first) — the base a restore, resume or GC starts from. The
    oldest entry's epoch when none is full. *)

val since_full : Epoch_index.entry list -> epoch:int -> Epoch_index.entry list
(** The entries from {!newest_full} up to [epoch]; [~epoch:max_int] gives
    the suffix a chain resumes from. *)

(** How a kind of index file holds entries: its codec, the chain each
    item belongs to, and how an entry of a chain becomes an item. *)
type 'a index = {
  decode : string -> pos:int -> 'a * int;
  encode : 'a -> string;
  chain : 'a -> int;
  entry : 'a -> Epoch_index.entry;
  make : int -> Epoch_index.entry -> 'a;
}

val plain : Epoch_index.entry index
(** A store's index: one chain. *)

val mux : Epoch_index.mux_entry index
(** A service shard's index: one chain per tenant. *)

(** {1 Committing} *)

(** One epoch to commit. *)
type item = {
  chain : int;  (** the chain it extends: a tenant id; ignored by {!plain} *)
  kind : Segment.kind;
  epoch : int;
  roots : int list;
  chunks : Chunk.t list;  (** the segment body, split *)
}

(** What a committed batch wrote. *)
type 'a committed = {
  entries : 'a list;  (** the index items, in batch order *)
  collisions : collision list;  (** salted chunks, in batch order *)
  fresh_chunks : int;  (** chunks appended to the pack *)
  bytes_written : int;  (** pack plus index bytes *)
  index_bytes : int;  (** of them, index bytes *)
}

val commit :
  'a index -> Vfs.t -> path:string -> Pack.t -> item list -> 'a committed
(** Commit a batch of epochs to the index file at [path]: resolve every
    chunk against the pack ({!Pack.resolve}: each key hit byte-verified,
    collisions climbing the salt ladder, and one pending table so the
    batch dedups across its own items), append the fresh chunks in one
    {!Pack.append_batch} (write + sync), then write the batch's entries
    to the index in one write + one sync — the commit point of every
    epoch in it. Every entry names the pack's length after the append and
    carries its directory coded straight from the chunks' records. A crash before that sync leaves at most orphaned chunks
    and a torn index tail, which {!recover} cuts. The result, collisions
    included, exists only once the index is synced, so a failed commit
    reports none. Continuity is not checked here
    ({!Ickpt_core.Chain.continuity}). The empty batch performs no I/O. *)

(** {1 Reopening}

    Reopen is two steps because the pack needs the index and the index the
    pack: {!load} the index files, open the pack with
    {!committed_pack_len} (the largest over every index file sharing it),
    then {!recover} each index against that pack. *)

type 'a loaded
(** An index file's intact entries, decoded (directories left coded) but
    not yet checked against a pack. *)

val load : 'a index -> Vfs.t -> string -> 'a loaded
(** Read an index file's intact prefix. Performs no writes.
    @raise Epoch_index.Unsupported_version if the file holds no intact
    entry and begins with an entry header of an older format version. *)

val committed_pack_len : 'a loaded -> int
(** The largest pack length the loaded entries name (0 for none): the
    pack frames before it were synced before those entries committed. *)

val recover : 'a index -> Vfs.t -> 'a loaded -> Pack.t -> 'a list * int
(** The committed entries of a loaded index file and the file's length
    once truncated to them: the intact prefix, cut further at the first
    entry that breaks its chain (oldest not full, an epoch gap) or does
    not resolve against the pack (a missing chunk, a pack length past the
    pack's end). The cut is the kept entries' decoded end; nothing is
    re-encoded. Directories are not decoded. *)

val check :
  'a index -> Pack.t -> who:('a -> string option) -> 'a list -> string list
(** Integrity problems of the given entries, per chain: the oldest epoch
    full, epochs contiguous, the pack as long as each entry names, every
    chunk present, intact by CRC and with bytes matching its key, every
    directory well-formed and each of its records landing on a record of
    its id inside its chunk. [who] names
    an item's chain in the messages ([None]: no name). [[]] means
    consistent. *)

val check_orphans : Pack.t -> Epoch_index.entry list -> string list
(** Pack chunks no given entry references (orphans a crash between pack
    and index append left) that fail their CRC: with {!check} over the
    same entries, every frame in the pack is checked. *)

(** {1 Reading entries back} *)

val segment : Pack.t -> Epoch_index.entry -> Segment.t
(** The exact segment an entry committed: its chunks concatenate to the
    original body. *)

val logical_bytes : Pack.t -> Epoch_index.entry list -> int
(** Chunk bytes referenced by the entries, dedup not applied. *)

(** {1 Taking checkpoints} *)

type progress = {
  next : int option;  (** the epoch the chain expects; [None] when empty *)
  since_full_bytes : int;  (** incremental body bytes since the newest full *)
}
(** What {!Ickpt_core.Policy.decide} reads of a chain. *)

val progress : Pack.t -> Epoch_index.entry list -> progress
(** One chain's progress, derived from its committed entries (oldest
    first) without reading a chunk: chunk lengths come from the pack's
    walked frame headers. *)

val advance : progress -> Segment.t -> progress
(** The progress once the segment extends the chain. *)

val take :
  Policy.t -> progress ->
  (Segment.kind -> Ickpt_stream.Out_stream.t ->
   Ickpt_runtime.Model.obj list -> unit) ->
  Ickpt_runtime.Model.obj list -> Segment.t
(** [take policy p write roots]: the chain's next segment, of the kind
    [policy] picks for [p], its body recorded by [write kind]. Appends
    nothing. *)
