(** Fully automatic checkpoint inference: the end-to-end pipeline that
    takes a bare mini-C program — {e no} [Sclass] declarations — and
    derives everything the specialized checkpointing runtime needs:

    {v
    program ──Phase_discover──► checkpoint rounds
            ──Shape_infer─────► heap encoding (roots, klasses)
    per phase:
            ──Dirty_ai────────► may-read/write regions (entry havoc converged)
            ──Shape_infer─────► inferred Sclass.shape per root
            ──Jspec.Pe────────► residual checkpointer (via Spec_cache)
            ──Tv.verify───────► verdict; non-Verified = hard Error
            ──Barrier_elide───► per-global elision plan
    v}

    The contract is {e verified specialized checkpointer or refusal}: a
    refuted (or unsupported) translation validation is an [Error] finding
    — callers must not fall back to the generic algorithm silently.

    Soundness of the per-phase regions: a phase's one-round program is
    analyzed with its entry state {e havoced} — [main]'s lifted locals,
    every global an earlier phase may write, and (for round phases, to a
    fixpoint) every global the phase itself may write, since iteration
    [k]'s writes are iteration [k+1]'s inputs. Invariant I8 (static
    may-write ⊇ dynamic dirty set) is re-checked dynamically by
    [Ickpt_analysis.Elide_oracle]. *)

open Jspec

type phase_result = {
  ph : Phase_discover.phase;
  ph_env : Minic.Check.env;  (** env of the one-round analysis program *)
  ph_havoc : string list;  (** converged entry havoc *)
  ph_dirty : Dirty_ai.result;  (** read/write effects of one round *)
  ph_regions : (string * Regions.t) list;
      (** clamped may-write region per original global, declaration order *)
  ph_shapes : (string * Sclass.shape) list;  (** inferred, same order *)
  ph_verdicts : (string * Tv.verdict) list;  (** TV verdict per root *)
  ph_wplan : Barrier_elide.wplan;
  ph_live : (string * Regions.t) list;
      (** regions live into the rest of the program at this phase's
          checkpoint boundary ({!Live.boundary}), declaration order *)
  ph_min_regions : (string * Regions.t) list;
      (** the minimized checkpoint set: may-write ∩ live per global —
          what a checkpoint at this boundary must actually preserve *)
  ph_min_shapes : (string * Sclass.shape) list;
      (** shapes over [ph_min_regions]: dead dirty blocks demoted to
          [Clean]/[Clean_opaque], so the specialized checkpointer skips
          them — used by [Engine.Minimized] runs for recording only
          (guards keep validating [ph_shapes], which the dynamic heap
          conforms to) *)
  ph_min_verdicts : (string * Tv.verdict) list;
      (** TV verdicts of the minimized shapes — same verified-or-refusal
          contract as [ph_verdicts] *)
  ph_live_wplan : Barrier_elide.wplan;
      (** live-extended elision ({!Barrier_elide.workload_plan_live});
          only sound for minimized runs *)
}

type t = {
  a_env : Minic.Check.env;
  a_encoding : Shape_infer.encoding;
  a_phases : phase_result list;
  a_live : Live.t;  (** the whole-program liveness run behind [ph_live] *)
  a_cache : Spec_cache.t;
      (** holds the compiled runners and their (boolean) verdicts — the
          engine's specialized mode draws from it *)
  a_findings : Finding.t list;
}

val infer :
  ?seed_unsound:bool -> ?seed_dead:bool -> ?max_vars:int ->
  ?cache:Spec_cache.t -> Minic.Check.env -> t
(** Run the pipeline. [seed_unsound] flips the first [Clean] node of the
    first eligible inferred shape to [Tracked] {e in the copy handed to
    the validator only} — the residual code is still built from the true
    shape, so TV must refute the pair; the run then carries an [Error]
    finding. This is the self-test that the verification gate actually
    gates (cf. [Tv.mutants] for the miscompile direction).

    [seed_dead] is the same self-test for the {e liveness} gate: the
    first non-empty minimized region loses one live block (scalars lose
    the whole cell), so the minimized checkpointer skips state a later
    read needs. Static findings stay silent — only the dynamic
    restore-equivalence oracle ([Elide_oracle.Liveness]) can catch it,
    which is exactly what [ickpt_lint live --seed-unsound] asserts.
    [max_vars] is passed through to {!Tv.verify}. *)

val ok : t -> bool
(** No [Error] findings: every synthesized checkpointer verified. *)

val findings : t -> Finding.t list

val verified_count : t -> int
(** Number of (phase, root) pairs whose verdict is [Verified]. *)

val pp : Format.formatter -> t -> unit
(** The full inference report: encoding, then per phase its effects,
    shapes with verdicts, and elision plan. *)
