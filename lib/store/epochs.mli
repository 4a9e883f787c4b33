(** The epoch core shared by {!Store} (one chain, one index file) and
    [Ickpt_service.Service] (one chain per tenant, multiplexed per-shard
    index files): how an epoch becomes pack frames plus an index entry,
    and which entries form a valid chain. Each rule has its one home here.

    Committing is the caller's: it appends {!staged.fresh} to the pack
    (write + sync), then the entry to its index (write + sync — the commit
    point), and only then records {!staged.collisions}, so a failed append
    reports none. *)

open Ickpt_core

type collision = {
  col_epoch : int;  (** epoch whose append hit the collision *)
  col_content_key : int;  (** the chunk's true content key, already taken *)
  col_stored_key : int;  (** the salted key the chunk was stored under *)
  col_attempt : int;  (** which rung of the salt ladder (>= 1) *)
}

(** {1 Staging} *)

type staged = {
  fresh : (int * string) list;  (** [(key, bytes)] to append, in order *)
  entry : Epoch_index.entry;  (** chunk keys plus directory delta *)
  collisions : collision list;  (** salted chunks, in chunk order *)
}

val stage :
  Pack.t ->
  pending:(int, string) Hashtbl.t ->
  kind:Segment.kind ->
  epoch:int ->
  roots:int list ->
  Chunk.t list ->
  staged
(** Resolve an epoch's chunks against the pack ({!Pack.resolve}: every key
    hit byte-verified, collisions climbing the salt ladder). [pending]
    holds the fresh chunks of earlier epochs of the same pack append, so a
    batch dedups across its own items. Performs no I/O. *)

(** {1 Chain rules} *)

val newest_full : Epoch_index.entry list -> epoch:int -> int
(** The newest full epoch at or before [epoch] in one chain's entries
    (oldest first) — the base a restore, resume or GC starts from. The
    oldest entry's epoch when none is full. *)

val since_full : Epoch_index.entry list -> epoch:int -> Epoch_index.entry list
(** The entries from {!newest_full} up to [epoch]; [~epoch:max_int] gives
    the suffix a chain resumes from. *)

(** How a kind of index file holds entries: its codec, and the chain each
    item belongs to. *)
type 'a index = {
  decode : string -> pos:int -> 'a * int;
  encode : 'a -> string;
  chain : 'a -> int;
  entry : 'a -> Epoch_index.entry;
}

val plain : Epoch_index.entry index
(** A store's index: one chain. *)

val mux : Epoch_index.mux_entry index
(** A service shard's index: one chain per tenant. *)

val recover : 'a index -> Vfs.t -> string -> Pack.t -> 'a list
(** The committed entries of an index file, truncating it to them: the
    intact prefix, cut further at the first entry that breaks its chain
    (oldest not full, an epoch gap) or does not resolve against the pack
    (a missing chunk, a directory entry outside its chunks). *)

val check :
  'a index -> Pack.t -> who:('a -> string option) -> 'a list -> string list
(** Integrity problems of the given entries, per chain: the oldest epoch
    full, epochs contiguous, every chunk present with bytes matching its
    key, every directory entry landing on a record of its id. [who] names
    an item's chain in the messages ([None]: no name). [[]] means
    consistent. *)

(** {1 Reading entries back} *)

val segment : Pack.t -> Epoch_index.entry -> Segment.t
(** The exact segment an entry committed: its chunks concatenate to the
    original body. *)

val logical_bytes : Pack.t -> Epoch_index.entry list -> int
(** Chunk bytes referenced by the entries, dedup not applied. *)
