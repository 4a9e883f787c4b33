(** Differential soundness oracles: each family runs the engine a fixed
    number of times on one workload and checks the static facts an
    optimization relies on against what the runs actually did.

    - {b Elision} ([Elision] over declared runs, [Inferred_elision] over
      annotation-free ones): the workload runs fully instrumented and
      with static write-barrier elision, in incremental and
      guarded-specialized modes — four runs. The instrumented and elided
      chains must be byte-identical segment by segment in each mode (a
      barrier removed from a site the phase does write silently drops it
      from incremental checkpoints), and the two instrumented chains must
      be byte-identical across modes (residual code = generic algorithm,
      observed end to end). {b Invariant I8}: decoding every incremental
      segment of the instrumented run and attributing it to its phase
      (one base, then one segment per iteration in phase order), every
      dynamically dirtied cell must lie inside the phase's static
      may-write region.

    - {b Liveness} (restore-equivalence of minimized chains, two runs: a
      guarded-specialized baseline and a [Minimized] run with
      live-extended elision). Minimized chains are not byte-identical by
      construction, so per epoch: the restored prefix must agree with the
      baseline restore on every cell the static {!Staticcheck.Live}
      analysis marks live at the epoch's boundary; a run re-driven to the
      epoch, switched onto the minimized restore and run to completion
      must produce the reference return value and final state (on
      live-or-rewritten cells); and every cell it reads before writing
      must lie inside the boundary's live region — the liveness dual of
      I8.

    - {b Parallel} (sequential identity, four runs: sequential vs
      parallel, incremental and guarded-specialized). Replaying
      domain-local write logs in schedule order gives the sequential
      chain whenever the units' footprints were really disjoint, so the
      chains must be byte-identical. Identity alone cannot gate — an
      overlap writing the same value keeps the chain identical while the
      run is still racy, which the [seed_racy] self-test demonstrates —
      so the footprints each domain actually observed are also
      intersected pairwise within every fork group: the parallel dual of
      I8. *)

type family =
  | Elision
  | Inferred_elision
  | Liveness of { seed_unsound : bool }
      (** [seed_unsound] minimizes with [seed_dead]: one deliberately
          dropped live block that {e must} surface as failures here (no
          static finding fires) *)
  | Parallel of { domains : int; seed_racy : bool }
      (** [seed_racy] is forwarded to the parallel runs; a seeded run
          must fail *)

(** What a failed check compared. *)
type check =
  | Identity  (** two chains that must be byte-identical differ *)
  | Containment
      (** a dynamic cell outside its static region: a dirty cell outside
          the may-write region (I8), or a read-before-write outside the
          live region *)
  | Restore  (** a live cell restores differently from the baseline *)
  | Resume_return  (** a resumed run returned differently *)
  | Resume_state  (** a resumed run ended in a different state *)
  | Resume_crash  (** a resumed run raised a runtime error *)
  | Chain  (** the runs diverged in shape before any comparison *)
  | Disjointness  (** observed footprints of concurrent units meet *)

val check_name : check -> string
(** ["identity"], ["containment"], ["restore"], ["resume-return"],
    ["resume-state"], ["resume-crash"], ["chain"] or ["disjointness"]. *)

type failure = {
  check : check;
  at : string;
      (** where: the compared chain pair (["incremental"],
          ["specialized"], ["cross-mode"]), an I8 site (["bta bt sid 12"],
          or the global and first cell of an inferred block), an epoch
          (["epoch 3"], ["run"] for the whole run) or a fork group
          (["incremental fork 2"]) *)
  detail : string;
}

(** Counts of what the checks covered; a family leaves the others 0. *)
type tallies = {
  segments : int;  (** I8: incremental segments decoded *)
  dirty_cells : int;  (** I8: dynamically dirty cells observed *)
  epochs : int;  (** liveness: incremental epochs checked *)
  live_cells : int;  (** liveness: live cells restore-compared *)
  resumes : int;  (** liveness: resumed executions *)
  reads_checked : int;  (** liveness: post-switch reads containment-checked *)
  baseline_bytes : int;  (** liveness: incremental bytes, baseline chain *)
  minimized_bytes : int;  (** liveness: incremental bytes, minimized chain *)
  domains : int;  (** parallel: domains the schedule used *)
  par_units : int;  (** parallel: units executed (incremental run) *)
  par_sweeps : int;  (** parallel: sweep fan-outs (incremental run) *)
  pairs_checked : int;  (** parallel: unit pairs disjointness-checked *)
}

type outcome = {
  workload : string;
  family : family;
  seeded : bool;
      (** liveness: ran with [seed_unsound]; parallel: the schedule
          actually injected the racy seed (a workload with no multi-strip
          sweep cannot be seeded) *)
  tallies : tallies;
  failures : failure list;  (** empty when sound *)
  reports : (Engine.run * Engine.report) list;
      (** every engine run, in execution order, each executed once *)
}

val run : name:string -> family -> Minic.Ast.program -> outcome
(** Execute the family's engine runs (four for elision and parallel, two
    for liveness; each distinct run once), then its checks.
    @raise Engine.Verification_failed as {!Engine.analyze} does on the
    inferred families. *)

val ok : outcome -> bool
(** No failure. *)

val findings : outcome -> Staticcheck.Finding.t list
(** One error finding per failure, scoped ["elide-oracle"],
    ["infer-oracle"], ["live-oracle"] or ["par-oracle"]. *)

val pp : Format.formatter -> outcome -> unit
(** The verdict, the tallies, and one line per failure. *)

val builtin_workloads : unit -> (string * Minic.Ast.program) list
(** The generator workloads the test suite and CLI default to:
    the image program and the small program of {!Minic.Gen}. *)
