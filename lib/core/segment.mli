(** One checkpoint segment: the records produced by a single run of a
    checkpointer, with its kind, its position in the chain and the roots
    it was taken from. A segment has no wire format of its own: stable
    storage ([Ickpt_cas.Store]) splits its body into chunks and keeps the
    rest in an epoch-index entry. *)

type kind = Full | Incremental

type t = {
  kind : kind;
  seq : int;  (** position in the chain *)
  roots : int list;  (** ids of the roots the checkpoint was taken from *)
  body : string;  (** object records as written by {!Checkpointer} *)
}

val pp_kind : Format.formatter -> kind -> unit

val body_size : t -> int
