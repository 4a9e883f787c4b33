(** The content-addressed checkpoint store — the one durable format: a
    {!Pack} of deduplicated chunks plus an {!Epoch_index}, opened as one
    unit. The store also runs the checkpoint policy: {!checkpoint} takes
    the next checkpoint of the kind its {!Ickpt_core.Policy} picks and
    commits it as the next epoch.

    A store at [path] owns two files, [path ^ ".pack"] and [path ^ ".idx"].
    Appending a segment (an {e epoch}) splits its body into record-aligned
    chunks ({!Chunk}), writes only the chunks not already stored, then
    commits the epoch by appending its index entry. A full after the first
    is {e folded} instead ({!Epochs.commit}): its records equal to the
    chain's committed ones stay in the chunks that hold them, and only the
    rest go into new chunks. Either way:

    + pack: append new chunks, sync;
    + index: append the entry, sync  —  the {e commit point}.

    Write-out is synchronous: an epoch is durable when its call returns
    (the paper's asynchronous write-out thread is not reproduced; the
    service, [Ickpt_service.Service], amortizes the two syncs over a group
    of epochs instead).

    The index entry locates the chunks the epoch is the first to
    reference, so the pack holds bare bodies and reopening reads no pack
    byte. A crash between the two appends leaves pack bytes past the
    committed length, and a crash inside either append a torn tail;
    reopening truncates both. So after a crash
    at {e any} byte of {e any} operation the store reopens to a committed
    epoch prefix — the extension of invariant I7 exercised by the
    [Ickpt_faultsim.Store_sim] workload of [Ickpt_faultsim.Sweep].

    {!gc} rewrites both files through staged temps — the index, then the
    pack — and commits by renaming the {e index first}. A crash before
    that rename leaves the old files and a staged index, which reopening
    drops; a crash after it leaves the staged pack alone, which reopening
    renames into place, finishing the gc.

    Chunk keys are 63-bit content hashes; a key hit during dedup is
    verified byte-for-byte against the stored chunk, so a hash collision
    never silently corrupts an epoch — the chunk is stored under a salted
    rehash ({!Chunk.salted_key}) instead, the append succeeds, and the
    event is recorded ({!collisions}) for the caller to surface (the CLI
    reports it as a finding in the JSON envelope).

    Where the rules live: the store holds one {!Epochs.chain}, which owns
    its committed entries, the policy's inputs, the due full after a
    failed commit and the image a fold reads; committing an epoch (pack,
    then index), the other chain rules (reopen validation, {!check}) and
    entry → segment are {!Epochs}, shared with the service; continuity is
    {!Ickpt_core.Chain.continuity}; writing and reading back the record
    files is {!Ickpt_core.Vfs.write_synced} and
    [Ickpt_stream.In_stream.fold_intact]. *)

open Ickpt_runtime
open Ickpt_core

type t

exception Error of string
(** Semantic store failure: out-of-order epoch, baseless incremental,
    unknown epoch, an index in an older format version. A torn tail is
    {e not} an exception — it is truncated away on open; a committed
    chunk that fails its CRC is [Ickpt_stream.In_stream.Corrupt] when
    first read ({!Pack}). *)

val pack_path : string -> string
val index_path : string -> string

val open_ :
  ?vfs:Vfs.t -> ?records_per_chunk:int -> ?policy:Policy.t -> Schema.t ->
  path:string -> t
(** Open (creating if missing) the store rooted at [path]. [policy]
    (default [Incremental_after_base]) decides the kind of each
    {!checkpoint}; the epoch it expects and its incremental bytes since
    the newest full are derived from the committed entries, reading no
    chunk, so a reopened store continues its chain. The index is read
    first; then a crashed {!gc} is finished or its staged temps dropped,
    the pack's key table built from the index entries ({!Epochs.recover}:
    no pack byte is read; every chunk is CRC-checked on first read), the
    index validated against it — entries from the first inconsistency
    onwards are dropped (defensively; crash-consistent use never produces
    them) — and both files truncated to what the kept entries commit.
    Directories are not decoded. If a commit to this index failed earlier
    in the process and no full epoch has committed since, the store's
    next checkpoint is full ({!checkpoint}).
    @raise Error if the index is in an older format version; nothing is
    swept, cut or written then. *)

val path : t -> string
val schema : t -> Schema.t

(** {1 Checkpointing} *)

val checkpoint : t -> Model.obj list -> int
(** Take the next checkpoint of the roots, of the kind the policy picks
    (always full on an empty store), with the generic checkpointer, and
    commit it as the next epoch; returns that epoch. Durable when this
    returns. If the commit raises (an I/O error), the epoch is not
    committed and the store's next checkpoint is full, numbered right
    after its newest committed epoch: taking the lost one cleared the
    heap's modified flags. The process remembers this per index file
    until a full epoch commits ({!Epochs.chain}), so a store reopened in
    the same process takes a full too. Every take writes into one stream
    the store keeps, so a full take does not regrow its buffer. *)

val checkpoint_with :
  t -> Model.obj list ->
  body:(Ickpt_stream.Out_stream.t -> Model.obj list -> unit) -> int
(** Like {!checkpoint}, but an incremental's body is recorded by [body] —
    the hook for specialized checkpointing routines. A full checkpoint
    (when the policy picks one) uses the generic full checkpointer. *)

(** {1 Appending} *)

type append_stats = {
  chunks_total : int;
      (** chunks the epoch's entry names: the segment's split, or a folded
          full's chunks, each once *)
  chunks_new : int;  (** how many were not already stored *)
  chunks_salted : int;  (** of the new ones, how many hit a hash collision
                            and were stored under a salted rehash *)
  bytes_logical : int;  (** segment body bytes *)
  bytes_written : int;  (** physical bytes appended (pack + index) *)
}

val append_segment : t -> Segment.t -> append_stats
(** Store one segment (taken elsewhere) as the next epoch; the next
    {!checkpoint} extends it. Its [seq] must be [latest + 1] —
    or, on an empty store, any non-negative value provided the segment is
    full. Durable (both files synced) when this returns. A hash collision
    does not fail the append: the chunk is stored under a salted rehash
    and the event recorded ({!collisions}).
    @raise Error on kind/sequence violations, and on an incremental after
    a failed commit, until a full one commits (see {!checkpoint}).
    @raise Ickpt_core.Restore.Error or [Ickpt_stream.In_stream.Corrupt] on
    a malformed body, before the segment is admitted or anything written. *)

type collision = Epochs.collision = {
  col_epoch : int;
  col_content_key : int;
  col_stored_key : int;
  col_attempt : int;
}

val collisions : t -> collision list
(** Collisions hit by {e committed} appends this session, oldest first —
    an append that raises records none. (Collisions
    survive on disk as salted chunks — see {!salted_chunks} — but the
    pairing with the epoch that hit them is session-local.) *)

val salted_chunks : t -> (int * int) list
(** [(stored key, salt attempt)] for every chunk in the pack stored under
    a salted rehash — detectable from bytes alone, so it survives reopen. *)

(** {1 Reading} *)

val epochs : t -> int list
(** Committed epoch numbers, ascending (contiguous). *)

val latest_epoch : t -> int option
val kind_of_epoch : t -> int -> Segment.kind
val roots_of_epoch : t -> int -> int list

val entry_at : t -> int -> Epoch_index.entry
(** The raw index entry committed at [epoch] (kind, roots, chunk keys,
    directory delta). @raise Error on an unknown epoch. *)

val segment_of_epoch : t -> int -> Segment.t
(** Reassemble the exact segment committed at [epoch]: a whole entry's
    chunks concatenate to the original body, and a folded full's records
    are copied out where its directory places them, framed by the store's
    schema ({!Epochs.segment}). @raise Error on an unknown epoch. *)

val restore : t -> epoch:int -> Heap.t * Model.obj list
(** Materialize the heap as of [epoch] in O(live records at that epoch):
    fold the per-object directories from the nearest full epoch at or
    before [epoch] (never the whole chain), then decode exactly one record
    per live object, reading each needed chunk once.
    @raise Error on an unknown epoch;
    @raise Dir.Error on a malformed directory or a record offset outside
    its chunk;
    @raise Restore.Error on semantic corruption;
    @raise Ickpt_stream.In_stream.Corrupt if a needed chunk fails its
    CRC. *)

val diff : t -> int -> int -> Diff.change list
(** [diff t a b] — the changes from epoch [a] to epoch [b], computed in
    O(changed directory entries): records whose directory pointers
    (chunk key, offset) agree are equal by content-addressing and are
    never decoded. Output order and contents match {!Diff.segments}. *)

(** {1 Space} *)

type retention =
  | Keep_all
  | Keep_last of int  (** keep the newest [n] epochs *)
  | Keep_from of int  (** keep epochs [>= e] *)

type gc_stats = {
  dropped_epochs : int;
  dropped_chunks : int;
  reclaimed_bytes : int;  (** physical pack bytes reclaimed *)
}

val gc : t -> retain:retention -> gc_stats
(** Drop epochs outside the retention window and every chunk no retained
    epoch references. The floor is widened down to the nearest full epoch
    so every retained epoch stays restorable. Crash-safe (staged temps,
    index renamed before pack). The index rename is the commit point: once
    it has landed — even if the call raised — the session is on the kept
    epochs, and if renaming the pack into place or reloading its table
    then raises, the next use of the store finishes it first, as {!open_}
    would. A gc that raises may thus have committed; the session follows
    the disk either way. *)

val refcounts : t -> (int * int) list
(** [(chunk key, number of references by committed epochs)], every
    located chunk included. *)

type stats = {
  n_epochs : int;
  n_chunks : int;
  logical_bytes : int;  (** sum of segment body sizes over all epochs *)
  physical_bytes : int;  (** pack + index file bytes *)
  dedup_ratio : float;  (** logical over pack bytes; 1.0 when empty *)
  pack_cut_bytes : int;
      (** bytes cut off the pack past the committed length when it was
          opened; 0 when there were none, and after a {!gc} *)
}

val stats : t -> stats

val check : t -> string list
(** Integrity check; [[]] means consistent. Verifies epoch contiguity,
    oldest-epoch-is-full, every entry's located chunks within the pack,
    every referenced chunk present, intact by CRC and with matching
    content hash, and every directory well-formed with its records in
    range. *)
