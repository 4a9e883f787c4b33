(** Checkpoint-phase discovery for annotation-free programs.

    The manual pipeline (PRs 1–5) knows its phases because the analysis
    engine hard-codes them (sea/bta/eta). For a bare mini-C program the
    rounds have to be {e discovered}: this pass partitions [main]'s
    top-level statements into phases — every top-level [while] loop is a
    {!Round} phase whose body executes once per checkpoint round, and each
    maximal run of other statements between loops is a single-round
    {!Setup} phase.

    For each phase it also synthesizes the {e one-round analysis program}
    that [Dirty_ai] runs on: the original globals and
    functions, [main]'s locals lifted to zero-initialized globals (renamed
    only on collision; the driver havocs them instead of trusting the
    fake initializer), and a fresh nullary [main] whose body is exactly
    one round — loop-guard evaluation prepended for [Round] phases so
    guard effects are attributed to the round, [return]s stripped so the
    may-analysis covers statements an early return could skip. *)

type kind =
  | Setup  (** runs once: statements between loops *)
  | Round of { cond : Minic.Ast.expr }
      (** one checkpoint per iteration of this top-level loop *)

type phase = {
  p_index : int;  (** position in [main], 0-based *)
  p_name : string;  (** e.g. ["setup:set_kernel"], ["loop:smooth+commit"] *)
  p_kind : kind;
  p_body : Minic.Ast.block;
      (** the original statements — what the driver executes (in [main]'s
          scope, locals intact) *)
  p_calls : string list;  (** functions called, first-use order *)
  p_program : Minic.Ast.program;
      (** the one-round analysis program (checks clean; numbered) *)
  p_lifted : string list;
      (** globals of [p_program] standing in for [main]'s locals *)
}

val discover : Minic.Check.env -> phase list
(** Never empty: a [main] with no statements yields one empty [Setup]
    phase. Phase names are unique (duplicates get a [#k] suffix). *)

val is_round : phase -> bool

val drive :
  phase ->
  halted:(unit -> bool) ->
  exec:(unit -> unit) ->
  eval:(Minic.Ast.expr -> int) ->
  step:(unit -> unit) ->
  int
(** Execute one phase with the checkpoint placement every driver shares
    (the engine's sequential and grouped runs, and the liveness oracle's
    re-driven runs): a [Setup] body once, then [step]; a [Round] body once
    per true guard evaluation with [step] after each, plus one more [step]
    after the final false evaluation — guard effects belong to the round.
    Nothing runs once [halted ()]; a round checks it before every guard
    evaluation. Returns the number of steps. *)

val pp : Format.formatter -> phase -> unit
