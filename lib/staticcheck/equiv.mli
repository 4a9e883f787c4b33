(** Trace equivalence over the finite flag space: the decision procedure
    of the translation validator.

    For a specialization class, the boolean variables of its {!Symheap}
    (modified flags of [Tracked] nodes, presence of [Nullable] children
    and opaque summaries) span a finite family of symbolic heaps.
    {!check} runs the generic program and the residual code under {e
    every} valuation with {!Symexec} and compares the normalized emit
    traces and final flag states. Agreement on all valuations proves that
    on every conforming heap — whatever its ids and field values — the
    residual code writes exactly the bytes of the generic Figure-1
    algorithm and leaves the same flags behind; one disagreeing valuation
    is a {e counterexample}, reported with the diverging traces.

    A counterexample is abstract (a valuation); {!replay} makes it
    concrete: the valuation is {!Symheap.materialize}d twice into
    identical object graphs, the generic algorithm runs over one and the
    residual code over the other — through both the {!Jspec.Interp} and
    {!Jspec.Compile} execution environments — for two checkpoint rounds
    (the second round exposes divergent [modified]-flag resets, which
    write identical bytes in round one but corrupt the {e next}
    checkpoint). The replay confirms the symbolic verdict end-to-end on
    real heaps and real backends. *)

type mismatch = {
  valuation : Symheap.valuation;
  assignment : (string * bool) list;  (** readable variable assignment *)
  generic : Symexec.outcome;
  residual : Symexec.outcome;
  detail : string;  (** first divergence, human-readable *)
}

type verdict =
  | Equivalent of { vars : int; paths : int }
      (** byte-trace and flag-state equal on all [paths = 2^vars]
          valuations *)
  | Mismatch of mismatch
  | Inconclusive of string
      (** outside the symbolic domain ({!Symexec.Unverifiable}) or over
          the variable budget — {e not} a proof in either direction *)

val check :
  ?program:Jspec.Cklang.program ->
  ?max_vars:int ->
  Jspec.Sclass.shape -> Jspec.Cklang.stmt list -> verdict
(** Compare residual [stmts] against [program] (default
    {!Jspec.Generic_method.program}) over the shape's heap family.
    [max_vars] (default 16) bounds the exhaustive enumeration at
    [2^max_vars] paths; larger families yield [Inconclusive]. *)

type replay = {
  generic_bytes : string list;  (** one checkpoint body per round *)
  interp_bytes : (string list, string) result;
      (** residual rounds under {!Jspec.Interp}; [Error] is a runtime
          error (itself a divergence) *)
  compiled_bytes : (string list, string) result;
      (** residual rounds under {!Jspec.Compile} *)
  state_match : bool;
      (** residual-side heaps structurally equal to the generic-side heap
          (flags included) after all rounds *)
  diverged : bool;
      (** some byte round differs, a residual run errored, or the final
          states differ *)
}

val replay :
  ?rounds:int ->
  Jspec.Sclass.shape -> Jspec.Pe.result -> Symheap.valuation -> replay
(** Materialize the valuation and run [rounds] (default 2) checkpoint
    rounds of the generic algorithm and of the residual code. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
val pp_replay : Format.formatter -> replay -> unit
