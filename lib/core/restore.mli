(** Restoration: rebuilding a heap from checkpoint segments.

    A segment body is a sequence of object records (id, class id, scalar
    fields, child ids). Restoration proceeds in two steps:

    + {e fold}: number every live object id with a dense {e slot} and
      remember, per slot, where the id's newest record lives (a source —
      a segment body or a store chunk — and a byte offset). Later records
      for the same id move its slot to the newer location (records are
      complete local states, so replacement is exact);
    + {e decode}: decode each slot's record once, straight into the object
      it describes, with its children. Slots are decoded from the newest
      down, so a child whose slot is above its parent's is already built
      and is linked as the parent is decoded; only a child below its
      parent (a new object pointing to an older one, a cycle's back edge)
      is linked afterwards, from a list of those fields.

    Both chain replay ({!of_segments}) and the content-addressed store's
    per-object directory go through the one decode, {!heap_of_slots}, over
    slices: a segment body whole, or a chunk where it lies in the pack's
    fetch buffer. No body or chunk is copied, and no array is sized by an
    id's value, so memory stays O(live objects) whatever ids a record
    carries.

    Restored objects come back with a clear [modified] flag — their state is
    exactly the checkpointed one. *)

open Ickpt_runtime

exception Error of string
(** Semantic restoration failure: unknown class id, negative id, a
    directory entry landing on another object's record, dangling child id,
    missing root. Framing-level corruption (a truncated record) raises
    {!Ickpt_stream.In_stream.Corrupt} instead. *)

type record = {
  rec_id : int;
  rec_kid : int;
  rec_ints : int array;
  rec_child_ids : int array;  (** {!Model.null_id} for absent children *)
}

val records_of_body : Schema.t -> string -> record list
(** Decode a segment body, in write order. *)

val scan_body : Schema.t -> string -> (int * int * int) list
(** The framing of a body without its contents: one [(rec_id, offset,
    length)] per record, in write order: {!iter_frames}, collected.
    @raise Error on an unknown class id. *)

val iter_frames : Schema.t -> string -> (int -> int -> int -> unit) -> unit
(** The framing of a body without its contents: [f rec_id offset length]
    per record, in write order. Field values are skipped by their bytes,
    not decoded. This is what the chunk store aligns its chunk boundaries
    on.
    @raise Error on an unknown class id.
    @raise Ickpt_stream.In_stream.Corrupt on a truncated record. *)

val skip_frame : Schema.t -> Ickpt_stream.In_stream.t -> int
(** Read past the record that starts at the stream's position, by its
    framing only, and return its id: what {!iter_frames} does per record.
    @raise Error on an unknown class id.
    @raise Ickpt_stream.In_stream.Corrupt on a truncated record. *)

val frames : ?hint:int -> Schema.t -> string -> int array * int array * int
(** [frames schema body] is [(ids, offs, n)], the framing of a body: its
    [n] records' ids and where each starts, in write order, in the first
    [n] cells of [ids] and [offs] ({!iter_frames} without a call per
    record). [hint] (the record count expected) sizes the arrays before
    they grow; they are not trimmed to [n], so a hint at or above the
    count costs one allocation each and no copy.
    @raise Error on an unknown class id.
    @raise Ickpt_stream.In_stream.Corrupt on a truncated record. *)

val frame_len : Schema.t -> string -> pos:int -> len:int -> int
(** The length of the record that starts at [pos], read within the
    [len] bytes from [pos] on: its framing only, as {!iter_frames}.
    @raise Error on an unknown class id.
    @raise Ickpt_stream.In_stream.Corrupt if the record runs past those
    bytes. *)

val record_at : Schema.t -> string -> pos:int -> record
(** Decode the single record starting at [pos] — the point lookup a
    per-object directory entry resolves to. *)

(** {1 Dense slots} *)

type slots
(** A newest-wins directory: live object id -> slot -> (source, offset). *)

val slots : int -> slots
(** An empty directory; the argument is a capacity hint (live objects). *)

val set_slot : slots -> id:int -> src:int -> off:int -> unit
(** The newest record of [id] lives at byte [off] of source [src]. *)

val find_slot : slots -> int -> (int * int) option
(** [(src, off)] of an id's newest record. *)

val iter_slots : slots -> (int -> int -> int -> unit) -> unit
(** [f id src off] per live object, in slot order. *)

val heap_of_slots :
  Schema.t ->
  slots ->
  source:(int -> string) ->
  start:int array ->
  len:int array ->
  roots:int list ->
  Heap.t * Model.obj list
(** Decode every slot's record once into a fresh heap, from the newest
    slot down, linking each child as its parent is decoded when the
    child's slot is above the parent's, and the rest once every object
    exists; resolve [roots] (returned in order) through the slot table.
    The slot table becomes the heap's registry ({!Heap.adopt}): the slots
    must not be used afterwards.
    Source [src] is the slice of [source src] of [len.(src)] bytes from
    [start.(src)]; a slot's offset is relative to its source's slice, and
    a record is read within that slice only. [source src] is asked again
    only when consecutive slots change source.
    @raise Error when a record's id is not its slot's, on a negative id,
    an offset outside its slice, an unknown class, a dangling child or a
    missing root.
    @raise Ickpt_stream.In_stream.Corrupt when a record runs past its
    slice's end, whatever bytes follow it. *)

val of_segments : Schema.t -> Segment.t list -> roots:int list -> Heap.t * Model.obj list
(** Chain replay: fold the records of the segments (oldest first) into
    slots, then {!heap_of_slots} over the bodies, each its own slice. *)
