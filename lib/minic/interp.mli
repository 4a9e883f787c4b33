(** Reference interpreter for the simplified C. Used by tests (the
    generated workloads actually run) and by the examples to show that the
    analyzed program is a real program, not a prop.

    Global state is accessed through a pluggable {!global_store}, so the
    same evaluator can run against a plain in-memory table (the default)
    or against a checkpointable heap whose setters carry write barriers
    (see [Ickpt_analysis.Wheap] — the annotation-free inferred
    checkpointing runtime). Locals always stay concrete; only globals are
    checkpointable state. *)

exception Runtime_error of string
(** Division by zero, out-of-bounds access, missing return value, or
    exceeding the step budget. *)

type global_store = {
  gs_get : string -> int;  (** scalar global read *)
  gs_set : string -> int -> unit;  (** scalar global write *)
  gs_get_cell : string -> int -> int;  (** array read, index pre-checked *)
  gs_set_cell : string -> int -> int -> unit;
  gs_length : string -> int;
      (** array extent, for the interpreter's bounds checks — store
          implementations never see an out-of-bounds index *)
}

val hashtable_store : Ast.program -> global_store
(** A plain in-memory store: scalars from their initializers, arrays
    zeroed. *)

type outcome = {
  return_value : int option;  (** [main]'s return, if it returned a value *)
  steps : int;  (** statements executed *)
  globals : (string * int) list;  (** final scalar global values *)
}

val run : ?max_steps:int -> Ast.program -> outcome
(** Execute [main] (no arguments). [max_steps] defaults to 10,000,000.
    @raise Runtime_error as documented; @raise Check_error via the implied
    {!Check.check}. *)

(** Incremental execution of [main], statement group by statement group —
    the driver hook the checkpoint-round runtime needs: execute one
    discovered phase round, checkpoint, repeat. The session owns [main]'s
    locals, so a loop counter kept in a local survives across
    [exec_block] calls exactly as it would in one uninterrupted run. *)
module Session : sig
  type t

  exception Halted of int option
  (** A [return] executed at [main]'s top level; carries the value.
      Further [exec_block] calls would re-run statements — the driver
      must stop. *)

  val start : ?max_steps:int -> ?store:global_store -> Ast.program -> t
  (** Check the program and set up [main]'s activation; nothing executes.
      [store] defaults to {!hashtable_store}: no instrumentation. *)

  val exec_block : t -> Ast.block -> unit
  (** Execute statements in [main]'s scope. @raise Halted on return. *)

  val eval : t -> Ast.expr -> int
  (** Evaluate an expression in [main]'s scope (e.g. a loop guard). *)

  val steps : t -> int

  val final_globals : t -> (string * int) list

  val locals : t -> (string * int) list
  (** Current scalar values of [main]'s locals, sorted by name — what a
      parallel phase unit must carry back to the master session. *)

  val set_local : t -> string -> int -> unit
  (** Overwrite one scalar local. @raise Runtime_error on arrays or
      unknown names. *)
end
