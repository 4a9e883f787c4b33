(** Resolving per-object directories and materializing heaps from a pack
    plus a list of epoch entries — the O(live-records) read path shared by
    {!Store} (one tenant, one index file) and [Ickpt_service.Service]
    (many tenants' entry lists demultiplexed from per-shard files).

    {!fold} is the only pass over the directory deltas, and the only
    place a coded directory is decoded ({!Epoch_index.iter_dir}): it
    numbers each live object id with a dense slot
    ({!Ickpt_core.Restore.slots}) holding the chunk and offset of the id's
    newest record. {!restore} then decodes each slot's record once,
    straight into the heap, where its chunk lies in the pack's fetch
    buffer ({!Pack.fetch}): no chunk is copied. *)

open Ickpt_runtime
open Ickpt_core

exception Error of string
(** Raised on an epoch not present in the given entries, a malformed coded
    directory, or (when folding against a pack) a record offset outside
    its chunk. *)

type t
(** The resolved per-object directory of one epoch. *)

val fold : entries:Epoch_index.entry list -> epoch:int -> t
(** Fold directory deltas newest-wins from the nearest full epoch at or
    before [epoch], decoding only those entries' directories, into slots
    sized by that full entry's record count. [entries] must be one chain's
    entries, oldest first. *)

val fold_in : Pack.t -> entries:Epoch_index.entry list -> epoch:int -> t
(** {!fold}, checking every record offset against its chunk's length in
    the pack (which must hold every chunk the entries name). *)

val find : t -> int -> (int * int) option
(** The (chunk key, byte offset) of an object's record. *)

val iter : t -> (int -> int * int -> unit) -> unit
(** [f id (chunk key, byte offset)] per live object. *)

type live
(** An epoch's live records where one {!Pack.fetch} put them. *)

val live : Pack.t -> entries:Epoch_index.entry list -> epoch:int -> live
(** {!fold_in}, then one {!Pack.fetch} of exactly the chunks some live
    record lies in: a chunk every record of which was superseded is not
    read. The records stay valid until the pack is fetched from again.
    @raise Error as {!fold_in}.
    @raise Ickpt_stream.In_stream.Corrupt if a chunk fails its CRC. *)

val find_equal :
  live -> int -> string -> pos:int -> len:int -> (int * int) option
(** [find_equal l id s ~pos ~len]: where the live record of [id] lies —
    its chunk's position among the folded entries' chunks, oldest entry
    first, and its offset there — if it is the [len] bytes at [pos] in
    [s]. A live record is read within its chunk. *)

type reader
(** A pack + schema with a chunk cache: each chunk is fetched once however
    many records it resolves. *)

val reader : Pack.t -> Schema.t -> reader

val record : reader -> int * int -> Restore.record
(** Decode the record at a directory pointer. *)

val restore :
  Pack.t -> Schema.t -> entries:Epoch_index.entry list -> epoch:int ->
  Heap.t * Model.obj list
(** Materialize the heap committed at [epoch]: {!live}, then decode
    exactly one record per live object ({!Restore.heap_of_slots}), in one
    pass from the newest slot down, checking that each record carries its
    directory entry's id, each decoded as its chunk's slice of the fetch
    buffer: a record that runs past its chunk's end is corrupt
    even when the next fetched chunk follows it there. Roots are the
    entry's.
    @raise Error as {!fold_in}.
    @raise Ickpt_core.Restore.Error as {!Restore.heap_of_slots}.
    @raise Ickpt_stream.In_stream.Corrupt if a chunk fails its CRC or a
    record runs past its chunk's end. *)
