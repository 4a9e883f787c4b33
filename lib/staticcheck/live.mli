(** Interprocedural liveness analysis for checkpoint-set minimization.

    The dual of {!Dirty_ai}: where the dirty analysis over-approximates
    what a phase {e writes}, this pass over-approximates what the rest of
    the program still {e reads} — per array segment, on the same
    {!Regions} interval lattice. A cell that is dirty at a checkpoint
    boundary but dead (never read again before being overwritten, or
    unread by any later phase) is pure checkpoint weight: [Auto_spec]
    demotes its block from the specialized checkpointer and
    [Barrier_elide] drops the write barrier when a whole global is
    write-only-before-death.

    The analysis is backward and flow-sensitive over [main], with two
    per-function call summaries iterated to a fixpoint over the call
    graph:

    - {b UER} (upward-exposed reads, over-approximate): the global
      regions one call of the function may read before writing them —
      computed by a forward walk carrying an under-approximate
      already-written set, so [commit]-style copy loops don't expose the
      regions a preceding sweep provably filled.
    - {b MW} (must-write, under-approximate): the global regions one
      call certainly writes — unconditional scalar assignments,
      constant-index stores, callee must-writes, and {e sweep loops}
      ([x = lo; while (x < hi) { ... a[x] = e; ... x = x + 1 }] with
      constant bounds), which is what turns a per-cell copy loop into a
      range kill.

    The backward transfer is classic liveness lifted to regions:
    [L_before = (L_after \ MW) ∪ UER ∪ reads], with kills only where the
    write is certain (must-write summaries, constant store indices) and
    loop bodies iterated to a fixpoint on the finite clamped lattice.
    Array-store index and value reads are always generated — dead-store
    elimination of array writes would be unsound here, since a resumed
    run re-executes the index computation against restored state.

    Per checkpoint boundary (one per {!Phase_discover} phase) the pass
    records the regions live into the rest of the program: a [Setup]
    boundary sits after its body; a [Round] boundary is the loop-head
    fixpoint, havoc-conservative over any number of remaining
    iterations. Soundness contract (checked dynamically by the
    [Ickpt_analysis.Elide_oracle.Liveness] oracle): every cell the
    concrete suffix reads before overwriting is contained in the
    boundary's live region, assuming each phase runs fault-free to
    completion — the same assumption the checkpoint driver itself makes.
    [main]'s locals live in the interpreter session, outside the
    checkpointed heap, and are not part of any boundary. *)

type t

val analyze :
  ?dirty:Dirty_ai.result ->
  Minic.Check.env ->
  Phase_discover.phase list ->
  t
(** Whole-program liveness over the {e original} program (not the
    one-round phase models): summary fixpoint, then one backward pass
    over [main]'s discovered phase structure. [dirty] supplies the
    flow-insensitive value approximation used to decide sweep bounds
    (globals whose value is a single point are constants); it defaults
    to [Dirty_ai.analyze env]. *)

val env : t -> Minic.Check.env

val rounds : t -> int
(** Summary fixpoint rounds taken — exposed for termination tests. *)

val boundary : t -> int -> (string * Regions.t) list
(** Live region per original global (declaration order, clamped to each
    global's extent) at the checkpoint boundary of the phase with the
    given [p_index]. {!Regions.Bot} = provably dead: no later read can
    observe this global's checkpointed value.
    @raise Invalid_argument on an unknown phase index. *)

val pp : Format.formatter -> t -> unit
(** Function summaries, then per-boundary live regions. *)
