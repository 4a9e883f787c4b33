(** Checkpoint diffing: compare the object states captured by two
    checkpoints (or chains). Used by tests and as a debugging tool — e.g.
    to see exactly which annotations an analysis iteration changed, or to
    audit that a specialized checkpoint captured the same state as a
    generic one. *)



type change =
  | Added of int  (** object id present only in the newer state *)
  | Removed of int
  | Int_changed of { id : int; slot : int; before : int; after : int }
  | Child_changed of { id : int; slot : int; before : int; after : int }
      (** child ids; {!Model.null_id} encodes absence *)
  | Class_changed of { id : int; before : int; after : int }

val pp_change : Format.formatter -> change -> unit

val segments :
  Ickpt_runtime.Schema.t -> before:Segment.t list -> after:Segment.t list -> change list
(** Diff the accumulated (newest-wins) states of two segment sequences.
    Changes are sorted by object id; slots ascending within an object. *)

val record_changes :
  int -> before:Restore.record -> after:Restore.record -> change list
(** The changes between two records of the same object id: a class change
    alone, or every differing scalar and child slot. *)

val sort : change list -> change list
(** The canonical order: by object id, slots ascending within an object. *)

val chains : Chain.t -> Chain.t -> change list
(** [chains a b] diffs the states captured by two chains (which must share
    a schema). *)

val summary : change list -> string
(** e.g. "3 added, 0 removed, 17 objects changed". *)
