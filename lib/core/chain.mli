(** A checkpoint chain: one full (base) checkpoint followed by incremental
    checkpoints, exactly the sequence the paper's incremental scheme
    produces. The chain owns sequence numbering and validates ordering.

    The chain is also the recovery unit: {!recover} replays the newest full
    segment and everything after it. A chain lives in memory; its durable
    counterpart is [Ickpt_cas.Store]. *)

open Ickpt_runtime

exception Invalid of string
(** Structural misuse: incremental before any full checkpoint, out-of-order
    sequence numbers, or recovery from an empty chain. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

(** {1 The continuity rule}

    One rule for every chain — this one, a [Ickpt_cas.Store]'s and each
    [Ickpt_service.Service] tenant's: the oldest segment is full with a
    sequence number [>= 0] (a full is self-contained, so a chain resumed
    after GC may start at any), and every later one is its predecessor
    + 1. *)

(** Why a segment cannot extend a chain. *)
type break =
  | Not_full  (** the chain is empty and the segment is incremental *)
  | Negative  (** the chain is empty and the sequence number is below 0 *)
  | Gap of int  (** the chain expects this sequence number instead *)

val continuity : next:int option -> Segment.kind -> epoch:int -> break option
(** [None] when a segment of that kind and sequence number extends a
    chain expecting [next] ({!next}). *)

val describe : epoch:int -> break -> string
(** Why a segment numbered [epoch] cannot extend the chain, in words. *)

(** {1 Taking checkpoints} *)

type taken = { segment : Segment.t; stats : Checkpointer.stats }

val segment :
  ?out:Ickpt_stream.Out_stream.t -> kind:Segment.kind -> seq:int ->
  (Ickpt_stream.Out_stream.t -> Model.obj list -> unit) ->
  Model.obj list -> Segment.t
(** [segment ~kind ~seq write roots]: the segment whose body [write]
    records for [roots], into [out] once it is reset (a fresh stream by
    default): a caller that keeps one stream across takes grows its
    buffer once. The body is a copy of what was written. Appends
    nothing. *)

val generic :
  ?stats:Checkpointer.stats -> Segment.kind ->
  Ickpt_stream.Out_stream.t -> Model.obj list -> unit
(** {!Checkpointer.full_many} or {!Checkpointer.incremental_many}. *)

val take_full : t -> Model.obj list -> taken
(** Run the full checkpointer over the roots and append the segment. *)

val take_incremental : t -> Model.obj list -> taken
(** Run the incremental checkpointer (Figure 1) over the roots and append.
    @raise Invalid when the chain has no full base. *)

val append : t -> Segment.t -> unit
(** Append an externally produced segment (e.g. built by a specialized
    checkpointing routine), checked by {!continuity}.
    @raise Invalid on a sequence gap, a negative first sequence number or
    a baseless incremental. *)

val next_seq : t -> int

val next : t -> int option
(** The sequence number the chain expects; [None] when it is empty. *)

(** {1 Inspecting and recovering} *)

val segments : t -> Segment.t list
(** Oldest first. *)

val length : t -> int

val since_full : t -> epoch:int -> Segment.t list
(** Oldest first, the segments from the newest full one at or before
    [epoch] through [epoch] — what a replay of [epoch] decodes. *)

val since_full_bytes : t -> int
(** Body bytes of the incrementals after the newest full segment. *)

val recover : t -> (Heap.t * Model.obj list, string) result
(** Rebuild the heap from the newest full segment and all subsequent
    incrementals; returns the roots recorded in the newest segment. *)
