(** Specialization classes: the programmer-supplied declarations that drive
    specialization (paper Section 3, [specclass ... specializes Checkpoint]).

    A {!shape} describes one recurring compound structure:
    - the runtime class of each node (making virtual dispatch resolvable);
    - its {!status} in the current program phase: [Tracked] nodes may be
      modified between checkpoints (the residual code keeps the flag test),
      [Clean] nodes are declared unmodified (test and recording eliminated);
    - the static knowledge about each child slot: statically null, present
      with a known shape, nullable with a known shape, or unknown (the
      residual code falls back to the generic checkpointer there).

    Shapes are finite trees: a shape of a linked list of known length is its
    unrolling ({!chain}), which is what lets specialization eliminate
    per-element tests (paper Section 5). *)

open Ickpt_runtime

type status =
  | Clean  (** declared unmodified in this phase: [modified] is false *)
  | Tracked  (** may be modified: residual code tests the flag *)

type shape = {
  klass : Model.klass;
  status : status;
  children : child array;  (** one per child slot of [klass] *)
}

and child =
  | Null_child  (** statically null *)
  | Exact of shape  (** statically present *)
  | Nullable of shape  (** may be null, known shape when present *)
  | Unknown  (** no static knowledge: generic fallback *)
  | Clean_opaque
      (** statically unknown shape, but the {e entire} subtree is declared
          unmodified in this phase: the child's id is still recorded by its
          parent, but the traversal is eliminated. This is how phase
          knowledge covers variable-sized substructures (e.g. the
          side-effect lists of the program analysis engine during the
          binding-time analysis phase, paper Section 4.2). *)

exception Ill_formed of string

val shape : ?status:status -> Model.klass -> child array -> shape
(** [shape k children] builds and {!validate}s a node. [status] defaults to
    [Tracked] (the safe assumption). *)

val leaf : ?status:status -> Model.klass -> shape
(** A node all of whose child slots are statically null. *)

val chain :
  ?status_at:(int -> status) -> Model.klass -> next_slot:int -> len:int ->
  shape
(** [chain k ~next_slot ~len] unrolls a linked list of exactly [len]
    elements of class [k], linked through child slot [next_slot] (other
    child slots statically null). [status_at i] gives element [i]'s status
    (head is 0); default all [Tracked].
    @raise Invalid_argument when [len < 1]. *)

val validate : shape -> unit
(** @raise Ill_formed when a node's [children] array length differs from
    its class's child-slot count. *)

val all_clean : shape -> bool
(** True when the node and every statically reachable descendant is
    [Clean] — the whole-subtree case whose traversal specialization
    removes entirely. *)

val tracked_count : shape -> int

val pp : Format.formatter -> shape -> unit
