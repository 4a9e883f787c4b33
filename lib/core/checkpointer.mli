(** The generic checkpoint drivers — the paper's Figure 1.

    {!incremental} implements the incremental algorithm verbatim: visit an
    object; if its [modified] flag is set, write its id and class id, invoke
    its virtual [record] method and reset the flag; then always invoke the
    virtual [fold] method to visit the children. Unmodified objects cost a
    test and a traversal but contribute no bytes.

    {!full} records every reachable object unconditionally (each exactly
    once, a visited set handles shared substructure) and resets all flags.

    Both produce a stream of records decodable by {!Restore} given the same
    {!Ickpt_runtime.Schema}. Object graphs must be acyclic (the paper's
    stated assumption); [fold] on a cyclic graph would not terminate. *)

open Ickpt_runtime

type stats = {
  mutable visited : int;  (** objects traversed (tests executed) *)
  mutable recorded : int;  (** objects whose state was written *)
  mutable skipped : int;  (** objects visited but unmodified *)
}

val fresh_stats : unit -> stats

val incremental : ?stats:stats -> Ickpt_stream.Out_stream.t -> Model.obj -> unit
(** Checkpoint the graph rooted at the argument, recording only modified
    objects, via virtual [record]/[fold] dispatch. Resets flags of recorded
    objects. *)

val full : ?stats:stats -> Ickpt_stream.Out_stream.t -> Model.obj -> unit
(** Record every reachable object once, regardless of flags; resets all
    flags so a subsequent incremental checkpoint starts from a clean base. *)

val incremental_many :
  ?stats:stats -> Ickpt_stream.Out_stream.t -> Model.obj list -> unit
(** Apply {!incremental} to each root in order (the paper's "the user
    program then applies the checkpoint method to the root of each compound
    structure"). *)

val full_many :
  ?stats:stats -> Ickpt_stream.Out_stream.t -> Model.obj list -> unit
(** {!full} over every root with one visited set, so an object reachable
    from two roots is recorded once. The visited set is kept per domain
    and cleared between takes, so a take of a heap no larger than one
    taken before allocates none of it; a take nested in another (from a
    [record] method) or running beside it in another thread gets a table
    of its own. *)

val full_tree : ?stats:stats -> Ickpt_stream.Out_stream.t -> Model.obj -> unit
(** Like {!full} but without the visited set: every object reachable along
    every path is recorded unconditionally — the paper's plain "full
    checkpointing". On trees this is equivalent to {!full} and faster; on
    DAGs shared objects are recorded once per path (larger checkpoints,
    identical restored state, since records are complete and idempotent).
    Must not be used on cyclic graphs. *)
