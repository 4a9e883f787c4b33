(** The heap object model: the substrate on which checkpointing operates.

    This emulates the parts of the JVM object model that the paper's
    optimizations target. Every object carries:
    - an {!info} record — the paper's [CheckpointInfo]: a unique identifier
      and a [modified] flag, set by write barriers ({!Barrier}) and reset
      when the object is recorded in a checkpoint;
    - a {!klass} — a runtime class descriptor holding the field layout and
      the {e virtual} [record]/[fold] methods. Method invocation goes through
      the mutable vtable slot, i.e. a genuine indirect call, reproducing the
      dispatch cost that specialization later removes;
    - [ints] — the scalar (int-typed) fields, parent class slots first;
    - [children] — the sub-object fields, parent class slots first.

    Objects may form DAGs but not cycles (the paper's assumption). *)

type info = { id : int; mutable modified : bool }

type klass = {
  kid : int;  (** dense class identifier, stable across save/restore *)
  kname : string;
  parent : klass option;
  n_ints : int;  (** total scalar slots, inherited included *)
  n_children : int;  (** total child slots, inherited included *)
  own_ints : int;  (** slots declared by this class itself *)
  own_children : int;
  mutable record_m : obj -> Ickpt_stream.Out_stream.t -> unit;
      (** virtual method: write the object's local state — every scalar
          field, then every child represented by its unique id. *)
  mutable fold_m : obj -> (obj -> unit) -> unit;
      (** virtual method: apply a visitor to each non-null child. *)
}

and obj = {
  info : info;
  klass : klass;
  ints : int array;
  children : obj option array;
}

val record : obj -> Ickpt_stream.Out_stream.t -> unit
(** Virtual dispatch of [record_m]. *)

val fold : obj -> (obj -> unit) -> unit
(** Virtual dispatch of [fold_m]. *)

val null_id : int
(** Identifier written for an absent child (-1). *)

val default_record : obj -> Ickpt_stream.Out_stream.t -> unit
(** The method a preprocessor would generate (cf. paper Section 2.2):
    every scalar field as a varint, then every child's id ({!null_id} for
    absent children), in slot order (inherited slots first). *)

val default_fold : obj -> (obj -> unit) -> unit

val is_instance : obj -> klass -> bool
(** [is_instance o k] is true if [o]'s class is [k] or a subclass of [k]. *)
