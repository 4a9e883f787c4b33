(** Dataflow lint over residual checkpoint programs.

    [Jspec.Pe] plus [Plan_opt.simplify] should leave no dead or redundant
    code in specialized routines; this pass verifies that, flagging what
    the partial evaluator failed to eliminate:

    - constant-condition tests (an unreachable branch);
    - tests whose both branches are empty, and empty let/loop bodies;
    - let bindings never used;
    - loops over a constant-empty range;
    - redundant [modified]-flag tests and resets — a test (or reset)
      whose outcome is already determined by an enclosing test on the
      same path, tracked through resets and calls. *)

type finding = { path : string; reason : string }

val lint : ?root:string -> Jspec.Cklang.stmt list -> finding list
(** All findings, sorted by path. [root] prefixes finding paths
    (default ["body"]). *)

val lint_result : Jspec.Pe.result -> finding list
(** Lint a specialization result's residual body (root ["checkpoint"]). *)

val pp_report : Format.formatter -> finding list -> unit
