(** Static write-barrier elision planner.

    Turns the {!Dirty_ai} may-write regions of the three phase models
    into an executable plan: which attribute-tree {e sites} (the
    side-effect lists, the BT cell, the ET cell) a phase provably never
    writes — so their write barriers and [modified]-flag maintenance can
    be compiled out for that phase — and how much of the runtime
    {!Jspec.Guard} check the same facts discharge.

    Soundness rests on invariant {b I8}: the static may-write region of
    a site must contain every cell the phase dynamically dirties. The
    planner only elides a site whose region is {e empty}; a region that
    is non-empty (even partially clean) keeps its barrier and yields a
    {!Finding.t} explaining what imprecision (or genuine modification)
    forces it to stay. {!Ickpt_analysis.Elide_oracle} re-verifies I8 and
    byte-identity of checkpoints dynamically on every workload. *)

type site = Lists | Bt | Et

val site_name : site -> string
(** ["se-lists"], ["bt"], ["et"]. *)

val all_sites : site list

val site_region_for : n_stmts:int -> Phase_model.phase -> site -> Regions.t
(** The site's static may-write region over statement ids (for [Lists],
    the join of the [se_reads] and [se_writes] regions), from the
    phase's memoized {!Infer.derive} (its {!Dirty_ai} run, inputs havoced
    per {!Phase_model.input_globals}), rescaled to a workload with
    [n_stmts] statements. The
    phase models use fixed 64-cell attribute arrays to abstract programs
    of any size; by convention the last model cell summarizes every
    statement at or beyond it, so a region reaching the last cell
    extends to [n_stmts - 1], and a smaller workload clamps. Emptiness —
    the elision criterion — is invariant under this rescaling. *)

type decision = {
  site : site;
  elide : bool;  (** barrier + flag maintenance compiled out *)
  region : Regions.t;  (** static may-write region over sids *)
  reason : string;
}

type plan = {
  phase : Phase_model.phase;
  decisions : decision list;  (** one per {!all_sites}, in order *)
  guard_shape : Jspec.Sclass.shape option;
      (** The declared shape with every statically discharged
          cleanliness check pruned ([Clean] status relaxed,
          [Clean_opaque] subtree walks dropped); [None] when nothing is
          left to check at run time. *)
  findings : Finding.t list;
      (** Why barriers or guard checks stay: [Error] for a declaration
          the region analysis contradicts (eliding would be unsound),
          [Warning] where imprecision leaves a partially-clean region
          that object-granularity barriers cannot exploit. *)
}

val plan : declared:Jspec.Sclass.shape -> Phase_model.phase -> plan
(** [declared] is the phase's declared specialization class (over the
    seven Attrs klasses, same tree as {!Infer.shape} builds), whose
    guard the plan prunes. *)

val elided : plan -> site list

val decision : plan -> site -> decision

val pp : Format.formatter -> plan -> unit

(** {1 Workload plans}

    The annotation-free pipeline ([Auto_spec]) elides at {e global}
    granularity over the {!Shape_infer} encoding: a global whose inferred
    per-phase may-write region is empty loses its write barrier for that
    phase (stores go through [Barrier.set_int_raw]); any non-empty region
    keeps it. The same I8 soundness contract applies, re-verified
    dynamically by [Ickpt_analysis.Elide_oracle]. *)

type wdecision = {
  wglobal : string;
  welide : bool;  (** barrier + flag maintenance compiled out *)
  wregion : Regions.t;  (** clamped may-write region of the global *)
  wreason : string;
}

type wplan = {
  wphase : string;  (** discovered phase name *)
  wdecisions : wdecision list;  (** one per global, declaration order *)
  wfindings : Finding.t list;
      (** [Warning] for partially-clean arrays: some cells are provably
          clean but a non-empty region keeps the barrier — the inferred
          shape still exploits the clean blocks. *)
}

val workload_plan :
  phase:string -> Shape_infer.encoding -> (string * Regions.t) list -> wplan
(** [workload_plan ~phase enc regions] with [regions] the per-global
    clamped may-write regions in declaration order. *)

val workload_plan_live :
  phase:string ->
  (string * Regions.t) list ->
  (string * Regions.t) list ->
  wplan
(** [workload_plan_live ~phase regions live]: the live-extended plan for
    {e minimized} runs. A global's barrier is elided when its may-write
    region is empty {e or} entirely dead at the phase's checkpoint
    boundary ([Regions.meet region live = Bot], write-only-before-death
    per {!Live}): the flags it would maintain guard state no minimized
    checkpoint records, and dropping them keeps demoted blocks from
    tripping later phases' cleanliness guards. Byte-identity runs must
    keep using {!workload_plan} — eliding a live barrier changes
    incremental segments by construction, which is exactly what
    the liveness oracle's restore-equivalence (not byte-identity)
    tolerates and re-verifies. *)

val welided : wplan -> string list

val pp_wplan : Format.formatter -> wplan -> unit
