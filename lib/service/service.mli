(** The multi-tenant checkpoint service: many independent tenant heaps,
    each with its own checkpoint chain and epoch numbering, all feeding
    {e one} shared deduplicating {!Ickpt_cas.Pack} — so identical state
    dedups {e across} tenants, which is where content addressing pays.
    A tenant's chain lives only on disk; in memory an open tenant is one
    [Ickpt_cas.Epochs.chain]: its committed index entries, the progress of
    its taken epochs ({!Ickpt_core.Policy}'s inputs and a due full) and
    the image its next fold reads.

    A service at [path] owns:
    - [path ^ ".pack"] — the shared chunk pack;
    - [path ^ ".shard<i>.idx"] — one multiplexed epoch index per shard
      ({!Ickpt_cas.Epoch_index.mux_entry}), holding the committed entries
      of every tenant hashed onto that shard, in commit order;
    - [path ^ ".tenants"] — the append-only tenant catalog (id ↔ name);
    - [path ^ ".svc"] — the shard count and chunking parameter, persisted
      because the tenant → shard mapping must be stable across reopens.

    {2 Group commit}

    Every committed epoch costs two syncs (pack, then index — the index
    write is the commit point, exactly as in {!Ickpt_cas.Store}). The
    {!commit_mode}'s policy decides how many epochs share them:
    checkpoints accumulate in a per-shard pending list, and whichever
    caller's submission reaches [max_items] items or [max_bytes] of
    segment body commits the whole batch inline, under the service lock
    — 2 fsyncs {e per batch}, amortized over every tenant in it. There is
    no background thread, so the fault simulator sweeps this path
    byte-by-byte. {!per_epoch} is the policy with batches of one: each
    checkpoint is durable when its call returns, 2 fsyncs/epoch — the
    {!Ickpt_cas.Store} behavior and the baseline the ablation compares
    against.

    A group commit is atomic per batch: the pack chunks of {e all} its
    epochs are synced before the index batch is appended in one write +
    one sync ([Ickpt_cas.Epochs.commit], the commit {!Ickpt_cas.Store}
    uses too), so a power loss mid-batch truncates whole index entries
    off the tail and every tenant independently recovers to a committed
    prefix of its own epochs — invariant I7, extended; swept by the
    [Ickpt_faultsim.Service_sim] workload of [Ickpt_faultsim.Sweep].

    Where the rules live: committing a batch, which moves each of its
    tenants' chains on (or back, when it fails), admitting an epoch, the
    other per-tenant chain rules (resume, reopen validation, {!check})
    and entry → segment are [Ickpt_cas.Epochs], shared with
    {!Ickpt_cas.Store}; continuity is {!Ickpt_core.Chain.continuity};
    writing and reading back the record files (pack, shard indexes,
    catalog, meta) is {!Ickpt_core.Vfs.write_synced} and
    [Ickpt_stream.In_stream.fold_intact].

    Thread-safety: one global lock serializes pack access and commits;
    chunk splitting (the CPU-heavy part) happens outside it on the calling
    domain. Calls on {e one} tenant must not race each other; calls on
    different tenants may come from different domains concurrently. *)

open Ickpt_runtime
open Ickpt_core
open Ickpt_cas

exception Error of string
(** Semantic misuse: tenant-id collision, a segment that breaks its
    tenant's chain, unknown epoch, use after close. *)

type t

type tenant
(** A handle to one open tenant. Invalidated by {!evict} and {!close}. *)

type commit_mode =
  | Group of Async_writer.Batch.policy
      (** Commit a shard's pending epochs once they reach [max_items]
          items or [max_bytes] bytes of segment body. [linger] must be
          [0.]: commits happen on the submitting caller's thread. *)

val per_epoch : commit_mode
(** [Group { max_items = 1; max_bytes = max_int; linger = 0. }]: every
    epoch commits by itself before its call returns. *)

val pack_path : string -> string
val shard_index_path : string -> int -> string
val catalog_path : string -> string
val meta_path : string -> string

val read_meta : Vfs.t -> string -> (int * int) option
(** The [(shards, records_per_chunk)] persisted by the service at [path];
    [None] when the meta file is missing or does not decode. Performs no
    writes.
    @raise Error on an intact meta holding a value out of range. *)

val read_catalog : Vfs.t -> string -> (int * string) list
(** The intact prefix of the tenant catalog of the service at [path],
    [(id, name)] oldest first. Performs no writes. *)

val tenant_id : string -> int
(** The 63-bit id a tenant name hashes to ({!Ickpt_stream.Hash64}). Two
    distinct names mapping to one id is a collision {!open_tenant}
    refuses. *)

val open_ :
  ?vfs:Vfs.t ->
  ?shards:int ->
  ?records_per_chunk:int ->
  ?policy:Policy.t ->
  ?commit:commit_mode ->
  path:string ->
  unit ->
  t
(** Open (creating if missing) the service rooted at [path]. [shards]
    (default {!Shard.default_count}) and [records_per_chunk] apply to a
    {e new} service; reopening reads both from the meta file and ignores
    the arguments. [policy] (default [Full_every 8]) decides full vs
    incremental per tenant; [commit] defaults to {!per_epoch}. Reopening
    truncates torn shard-index tails, builds the shared pack's key table
    from every shard's entries (tenants dedup across shards; no pack byte
    is read), validates every surviving entry (per-tenant contiguity,
    chunks located), truncating each shard at its first invalid entry,
    and cuts the pack to what the kept entries locate.
    @raise Invalid_argument on [shards] outside [1 .. Shard.max_count],
    [records_per_chunk < 1], or a commit policy with [max_items < 1],
    [max_bytes < 1] or [linger <> 0.].
    @raise Error if an intact meta file holds a shard count or
    [records_per_chunk] below 1. *)

val open_tenant : t -> Schema.t -> name:string -> tenant
(** Open (creating or resuming) the tenant called [name]. Resuming
    derives its counters from its committed entries and reads no chunk.
    Returns the existing handle if already open.
    @raise Error if [name]'s id collides with a different existing name. *)

val checkpoint : tenant -> Model.obj list -> int
(** Take the next checkpoint of the tenant's heap (kind per the service
    {!Ickpt_core.Policy}) and submit it for commit; returns its epoch.
    Unless the batch is full, the epoch is not durable yet when this
    returns — {!flush} is the durability barrier.

    A commit that raises (an I/O error: the call that filled the batch,
    {!flush}, {!restore}, {!evict} or {!close} raises it) loses its whole
    batch. Each tenant with an epoch in it goes back to its committed
    entries: its next checkpoint is numbered right after its newest
    committed epoch, and is full, since taking the lost epochs cleared its
    heap's modified flags. The process remembers this per (service root,
    tenant) until a full epoch of the tenant commits
    ([Ickpt_cas.Epochs.chain]), so it holds across {!evict} and across
    a reopen of the service in the same process. Each tenant's takes
    write into one stream it keeps, so a full take does not regrow its
    buffer. *)

val append : tenant -> Segment.t -> int
(** Submit an externally produced segment as the tenant's next epoch
    ({!Ickpt_core.Chain.continuity} over its taken epochs); returns it.
    @raise Error on a sequence gap, a negative first sequence number, a
    baseless incremental, or an incremental while a full is due after a
    failed commit (see {!checkpoint}), submitting nothing. *)

val epochs : tenant -> int list
(** The tenant's {e committed} epochs, ascending. *)

val latest_epoch : tenant -> int option

val restore : tenant -> epoch:int -> Heap.t * Model.obj list
(** Flush, then materialize the tenant's heap as of [epoch] in O(live
    records), reading only this tenant's entries (and the shared pack).
    @raise Error on an epoch the tenant never committed. *)

val flush : t -> unit
(** Commit every pending checkpoint of every tenant: the durability
    barrier for epochs still waiting for their batch to fill. *)

val evict : t -> name:string -> unit
(** Flush, then drop the tenant's in-memory state (entry cache, counters).
    Its committed epochs stay on disk; {!open_tenant} resumes them. The
    old handle must not be used again. *)

val close : t -> unit
(** Flush. Idempotent; the handle (and every tenant handle) must not be
    used after. *)

val tenants : t -> (int * string) list
(** The catalog: every tenant ever opened here, `(id, name)`, oldest
    first — including evicted and not-currently-open ones. *)

type stats = {
  n_tenants : int;  (** catalog size *)
  n_open : int;  (** tenants currently open *)
  n_epochs : int;  (** committed epochs, all tenants *)
  n_chunks : int;  (** chunks in the shared pack *)
  logical_bytes : int;  (** sum of segment body bytes over all epochs *)
  pack_bytes : int;  (** physical pack bytes *)
  dedup_ratio : float;  (** logical over pack bytes; 1.0 when empty *)
  commit_batches : int;  (** group commits this session (2 fsyncs each) *)
  committed_epochs : int;  (** epochs committed this session *)
  collisions : int;  (** hash collisions absorbed this session *)
  pack_cut_bytes : int;
      (** bytes cut off the shared pack past the committed length when it
          was opened; 0 when there were none *)
}

val stats : t -> stats

val collisions : t -> Epochs.collision list
(** Hash collisions absorbed by committed batches this session, oldest
    first; each chunk was stored under a salted rehash
    ({!Ickpt_cas.Chunk.salted_key}) instead of failing the tenant's
    append. *)

val drain_latencies : t -> float list
(** Commit latencies (seconds from submission to durable, on the
    monotonic clock) of epochs committed since the last call, unordered;
    clears the buffer. *)

val committed : t -> Epoch_index.mux_entry list
(** Every tenant's committed entries, shard by shard, each shard's in
    commit order; pending checkpoints are not included. *)

val chunk_len : t -> int -> int option
(** The body length of a chunk in the shared pack by key; [None] when the
    pack holds no such chunk. Reads only the pack's key table. *)

val check : t -> string list
(** Integrity check over every tenant's committed entries and the shared
    pack (every located chunk CRC-checked); [[]] means consistent.
    Salted chunks verify like any other. *)
