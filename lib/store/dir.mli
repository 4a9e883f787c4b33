(** Resolving per-object directories and materializing heaps from a pack
    plus a list of epoch entries — the O(live-records) read path shared by
    {!Store} (one tenant, one index file) and [Ickpt_service.Service]
    (many tenants' entry lists demultiplexed from per-shard files).

    {!fold} is the only pass over the directory deltas: it numbers each
    live object id with a dense slot ({!Ickpt_core.Restore.slots}) holding
    the chunk and offset of the id's newest record. {!restore} then decodes
    each slot's record once, straight into the heap. *)

open Ickpt_runtime
open Ickpt_core

exception Error of string
(** Raised on an epoch not present in the given entries, or a directory
    entry pointing past its epoch's chunk list. *)

type t
(** The resolved per-object directory of one epoch. *)

val fold : entries:Epoch_index.entry list -> epoch:int -> t
(** Fold directory deltas newest-wins from the nearest full epoch at or
    before [epoch]. [entries] must be one chain's entries, oldest first. *)

val find : t -> int -> (int * int) option
(** The (chunk key, byte offset) of an object's record. *)

val iter : t -> (int -> int * int -> unit) -> unit
(** [f id (chunk key, byte offset)] per live object. *)

type reader
(** A pack + schema with a chunk cache: each chunk is fetched once however
    many records it resolves. *)

val reader : Pack.t -> Schema.t -> reader

val record : reader -> int * int -> Restore.record
(** Decode the record at a directory pointer. *)

val restore :
  reader -> entries:Epoch_index.entry list -> epoch:int -> Heap.t * Model.obj list
(** Materialize the heap committed at [epoch]: {!fold}, then decode exactly
    one record per live object ({!Restore.heap_of_slots}), checking that
    each record carries its directory entry's id. Roots are the entry's. *)

val resolves : Pack.t -> Epoch_index.entry -> bool
(** Does every chunk of the entry exist in the pack, and every directory
    entry point inside one of the entry's chunks (a chunk index in range,
    an offset below that chunk's length)? The structural half of reopen's
    validation: each chunk's length is looked up once, so the test is O(1)
    per directory entry. Unlike {!check_entry} it decodes nothing. *)

val check_entry : Pack.t -> Epoch_index.entry -> string list
(** Integrity problems of one entry against the pack: missing chunks,
    chunks whose bytes do not match their key, and directory entries that
    point outside the entry's chunks or at a record of another id. [[]]
    means consistent. *)
