(** The symbolic heap family denoted by a specialization class.

    A {!Jspec.Sclass.shape} describes not one heap but a {e family}: every
    conforming instance fixes, per [Tracked] node, whether its [modified]
    flag is set, and per [Nullable]/[Unknown]/[Clean_opaque] child, whether
    the child is present. This module makes that family explicit:

    - every shape node becomes a {e symbolic node} with a distinct
      identity (so its id, class and field slots are symbolic constants
      shared by every execution over the family);
    - every [Tracked] node contributes one boolean {e flag variable};
      [Clean] nodes have their flag pinned to [false];
    - every [Nullable] child contributes a {e presence variable};
    - every [Unknown] or [Clean_opaque] child becomes an {e opaque
      summary} — a fresh symbolic object of unknown class and layout,
      with its own presence variable, below which no structure is known.

    The variable space is finite, so a property of the whole family can be
    decided by enumerating valuations ({!iter_valuations}) — this is what
    {!Equiv} does to prove residual code byte-equivalent to the generic
    algorithm. A valuation can also be {!materialize}d as a concrete
    {!Ickpt_runtime.Model.obj} graph (optionally registered on a real
    {!Ickpt_runtime.Heap.t}), which is how counterexamples found
    symbolically are replayed on the real backends. *)

open Ickpt_runtime

(** One child slot of a symbolic node. *)
type slot =
  | S_null  (** statically null *)
  | S_node of int  (** [Exact]: always-present node, by node index *)
  | S_maybe of int * int  (** [Nullable]: (node index, presence variable) *)
  | S_opaque of int  (** [Unknown]/[Clean_opaque]: opaque summary index *)

type node = {
  idx : int;  (** dense preorder index; the root is 0 *)
  shape : Jspec.Sclass.shape;
  path : string;  (** guard-style, e.g. ["root.children[1]"] *)
  flag_var : int option;  (** the modified-flag variable of a [Tracked] node *)
  slots : slot array;
}

type opaque = {
  oidx : int;  (** dense opaque-summary index *)
  opath : string;
  oclean : bool;  (** true for [Clean_opaque]: whole subtree declared clean *)
  present_var : int;
}

(** What a boolean variable of the family stands for. *)
type var_kind =
  | Flag of int  (** modified flag of node [idx] *)
  | Present of int  (** presence of the [Nullable] node [idx] *)
  | Opaque_present of int  (** presence of opaque summary [oidx] *)

type t = {
  shape : Jspec.Sclass.shape;
  nodes : node array;
  opaques : opaque array;
  vars : var_kind array;  (** variable [v]'s meaning, [v] dense from 0 *)
}

val of_shape : Jspec.Sclass.shape -> t

val n_vars : t -> int

val var_name : t -> int -> string
(** Readable name, e.g. ["modified(root.children[0])"] or
    ["present(root.children[2])"]. *)

(** {1 Valuations} *)

type valuation = bool array
(** One member of the family: a truth value per variable. *)

val iter_valuations : t -> (valuation -> unit) -> unit
(** All [2^n_vars] valuations, in a fixed order (all-false first). *)

(** {1 Materialization} *)

val materialize :
  ?heap:Heap.t -> ?first_id:int -> t -> valuation -> Model.obj
(** Build a concrete conforming instance: one object per present node,
    ids assigned in preorder from [first_id] (default 101, so ids never
    collide with class ids or field values), int fields set to distinct
    recognizable values, [modified] flags as the valuation dictates.
    Present opaque summaries are materialized as leaf-like objects of the
    root's class: dirty when [Unknown] (the worst case for byte
    divergence), clean when [Clean_opaque] (as the declaration promises).
    When [heap] is given the objects are registered on it via
    {!Heap.alloc_with_id}; two materializations of the same valuation
    always produce graphs with identical ids and field values, so a
    generic run on one and a specialized run on the other must write
    identical bytes. *)

