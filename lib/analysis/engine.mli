(** The phase driver: runs the three analyses over a program, taking a
    checkpoint at the end of every iteration (paper Section 4.2: "the end
    of an iteration is a natural time at which to take a checkpoint"),
    with one of three checkpointing methods:

    - [Full] — record every object each time (the paper's baseline);
    - [Incremental] — the generic Figure-1 algorithm (one full base
      checkpoint, then modified-only);
    - [Specialized] — phase-specific residual code produced by {!Jspec.Pe}
      from the {!Attrs} shapes, compiled to closures.

    The driver also measures, per iteration, checkpoint construction time
    and (optionally) pure traversal time — re-running the same routine on
    the now-clean heap with a byte-counting sink, which exercises tests and
    dispatch but records nothing (the "traversal time" row of Table 1). *)

open Ickpt_core

type mode =
  | Full
  | Incremental
  | Specialized of { guard : bool }
      (** [guard]: every checkpoint first validates the heap against the
          specialization class it records under, raising
          {!Jspec.Guard.Violated} on a breach. *)

val pp_mode : Format.formatter -> mode -> unit

(** {1 Run descriptions}

    {!analyze} takes one of three runs. Each carries exactly the knobs its
    path reads, so a combination the engine cannot honour does not
    typecheck: minimization is Specialized by construction, parallel
    execution exists only for inferred runs, and nothing is accepted only
    to be ignored. Build runs from the defaults with [with], e.g.
    [Declared { declared with mode = Full; bta_min = 9; eta_min = 3 }]. *)

(** A run of the analysis engine's own attribute heap under the declared
    specialization classes (the paper's pipeline). Each phase checkpoints
    at the end of every iteration; sea runs at least once, bta at least
    [bta_min] times and eta at least [eta_min] times (the paper's
    configuration is 9 and 3). *)
type declared = {
  mode : mode;
  elide : bool;
      (** run each phase under its {!Staticcheck.Barrier_elide} plan:
          setters for sites the dirty-region analysis proves the phase
          never writes bypass the write barrier, and the runtime guard is
          pruned to the checks the analysis could not discharge (skipped
          when none remain). Elision never changes checkpoint bytes; the
          elision oracle verifies this differentially. *)
  bta_min : int;
  eta_min : int;
  preflight : bool;
      (** spec-lint the declared classes against the static inference
          before any phase runs ({!Preflight_failed} on an unsound
          declaration), then translation-validate every phase's residual
          code through the run's {!Jspec.Spec_cache}
          ({!Verification_failed} on a refuted or unsupported shape) *)
  measure_traversal : bool;
      (** also time each checkpoint routine again on the now-clean heap
          with a byte-counting sink: the "traversal time" row of Table 1 *)
}

val declared : declared
(** [Incremental], no elision, minimum iteration counts 1, no preflight,
    no traversal timing. *)

type parallel = {
  domains : int;  (** strips per sweep; at least 1 *)
  seed_racy : bool;
      (** widen one strip's executed range by one cell after the static
          checks (see {!Staticcheck.Interfere.schedule}): the self-test
          that the dynamic oracle gates parallel runs *)
}

(** An {e annotation-free} run through the automatic pipeline
    ({!Staticcheck.Auto_spec}): phases are discovered from [main]'s
    top-level structure, the globals become the checkpointable {!Wheap},
    shapes and elision plans are inferred per phase, and the reference
    interpreter drives the program itself, one checkpoint per discovered
    round. Every synthesized checkpointer must pass translation
    validation first, {e in every mode}: {!Verification_failed}
    otherwise (verified or refused, never a silent generic fallback). *)
type inferred = {
  mode : mode;  (** a guard validates each root against its inferred shape *)
  elide : bool;  (** the inferred per-global {!Staticcheck.Barrier_elide.wplan}s *)
  parallel : parallel option;
      (** execute an {!Staticcheck.Interfere} schedule: statically
          disjoint iteration strips and phase groups run on their own
          OCaml domains against domain-local {!Dlog} tracking stores, and
          the master replays the write logs in schedule order through the
          barriered heap. The chain is byte-identical to the sequential
          run whenever the static disjointness proof holds; the parallel
          oracle re-checks this, together with observed-footprint
          disjointness. *)
}

val inferred : inferred
(** [Incremental], no elision, sequential. *)

(** An inferred Specialized run recording under the {e minimized} shapes
    ([Staticcheck.Auto_spec.ph_min_shapes]: may-write ∩ live per the
    {!Staticcheck.Live} analysis, dead dirty blocks demoted). Guards keep
    validating the original shapes, [elide] uses the live-extended plans,
    and every step ends with a {!Wheap.clear_modified} sweep so demoted
    blocks' stale flags cannot trip later guards. Minimized segments are
    {e not} byte-identical to unminimized ones by construction; their
    soundness contract is restore-equivalence, which the liveness oracle
    verifies. *)
type minimized = {
  guard : bool;
  elide : bool;
  seed_dead : bool;
      (** deliberately drop one live block from the minimized set (see
          {!Staticcheck.Auto_spec.infer}), which the restore-equivalence
          oracle must catch *)
}

type run =
  | Declared of declared
  | Inferred of inferred
  | Minimized of minimized

type iteration_stat = {
  bytes : int;  (** checkpoint body size *)
  seconds : float;  (** construction time *)
  traversal_seconds : float option;
  guard_seconds : float;
      (** time validating the specialization class before recording
          ([Specialized] mode with guards on; [0.] otherwise — and [0.]
          again when static elision discharges the whole check) *)
  recorded : int;  (** objects recorded (full/incremental modes only) *)
}

type phase_report = {
  phase : string;  (** "sea", "bta" or "eta" *)
  iterations : int;
  stats : iteration_stat list;  (** one per iteration, in order *)
  analysis_seconds : float;  (** time in the analysis itself *)
}

(** What the run checkpointed: the analysis engine's own attribute heap
    ([Declared] runs), or the workload program's globals materialized as
    a {!Wheap} under fully inferred shapes ([Inferred] and [Minimized]
    runs). *)
type subject =
  | Engine_heap of Attrs.t
  | Workload_heap of { wheap : Wheap.t; auto : Staticcheck.Auto_spec.t }

module Isch = Staticcheck.Interfere.Schedule

type par_unit = {
  pu_phase : string;  (** discovered phase name *)
  pu_label : string;  (** e.g. ["smooth[8,20)"], or ["phase:loop_a"] *)
  pu_group : int;
      (** fork instance: units sharing it ran concurrently — the scope of
          the oracle's pairwise observed-disjointness check *)
  pu_reads : (string * Staticcheck.Regions.t) list;
      (** upward-exposed reads the unit actually performed *)
  pu_writes : (string * Staticcheck.Regions.t) list;
}

type par_report = {
  par_domains : int;
  par_schedule : Isch.t;  (** the static schedule the run executed *)
  par_units : par_unit list;  (** execution order *)
  par_sweeps : int;  (** sweep fan-outs actually executed *)
}

type report = {
  mode : mode;
  n_stmts : int;
  base_bytes : int;  (** size of the initial full checkpoint *)
  phases : phase_report list;
  chain : Chain.t;
  subject : subject;
  env : Minic.Check.env;
  elide_plans : Staticcheck.Barrier_elide.plan list;
      (** the per-phase elision plans of a [Declared] run with [elide];
          empty otherwise (inferred runs carry their plans in the
          {!subject}'s [Staticcheck.Auto_spec.t]) *)
  par : par_report option;
      (** present iff the run was [Inferred] with [parallel] *)
}

val attrs : report -> Attrs.t
(** The attribute heap of a declared run.
    @raise Invalid_argument on an inferred or minimized report. *)

val auto_spec : report -> Staticcheck.Auto_spec.t option
(** The inference result of an inferred or minimized run; [None]
    otherwise. *)

val wheap : report -> Wheap.t option

exception Preflight_failed of Staticcheck.Spec_lint.diagnostic list

exception Verification_failed of (string * Staticcheck.Tv.verdict) list
(** A phase's residual checkpoint code failed translation validation
    (see {!Staticcheck.Tv.verify}); carries the failing phases with
    their verdicts. *)

val preflight : Attrs.t -> Staticcheck.Spec_lint.diagnostic list
(** Spec-lint every phase's declared specialization class against the
    statically inferred one (see {!Staticcheck.Infer}). Empty when the
    declarations are exactly as tight as the inference. *)

val analyze : run -> Minic.Ast.program -> report
(** Run the program under [run], checkpointing as the mode says. The
    chain in the result can be recovered to verify the checkpointed state
    (see the crash-recovery example). *)

val phase_bytes : phase_report -> int

val phase_ckp_seconds : phase_report -> float

val recover_annotations :
  report -> (int * int * int list * int list) list
(** Recover the chain and read back, for each statement (in sid order),
    the tuple [(bt, et, reads, writes)] — used to validate recovery
    end-to-end. @raise Failure when the chain cannot be recovered. *)
