(** Lint for declared specialization classes.

    The paper trusts the programmer's [Clean] declarations; a wrong one
    silently corrupts checkpoints, and {!Jspec.Guard} only catches it at
    run time, per object. This pass compares a *declared* shape against
    the shape *inferred* by {!Infer} and reports two defect classes:

    - {e unsound} — [Clean] (or [Clean_opaque]) on state the phase can
      write: specialized code would skip real modifications, a
      correctness bug;
    - {e imprecise} — [Tracked] (or [Unknown]) on state the phase
      provably never writes: correct, but residual code keeps tests and
      traversals the partial evaluator could have eliminated. *)

type verdict = Unsound | Imprecise

type diagnostic = {
  verdict : verdict;
  phase : string;
  path : string;  (** guard-style, e.g. ["root.children[0]"] *)
  klass : string;
  reason : string;
}

val check_phase :
  klasses:Ickpt_runtime.Model.klass list ->
  Phase_model.phase ->
  declared:Jspec.Sclass.shape ->
  diagnostic list
(** Every disagreement between [declared] and {!Infer.derived_shape} for
    the phase, sorted by path (stable and deterministic). Empty iff the
    declaration is exactly as tight as the inference. *)

val has_unsound : diagnostic list -> bool

val pp_report : Format.formatter -> diagnostic list -> unit
