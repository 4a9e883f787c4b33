(** Interference analysis for domain-parallel phase execution.

    The static trust story behind parallel engine runs: decide,
    from may-read/may-write footprints on the {!Regions} interval
    lattice, which work of a discovered phase structure may execute on
    separate OCaml domains without the dirty logs interleaving
    unsoundly. Two levels:

    - {b Phase pairing}: consecutive top-level phases
      ({!Phase_discover}) whose footprints are pairwise disjoint —
      writes of each disjoint from the whole footprint (reads ∪ writes)
      of the other, shared read-only state allowed — form a parallel
      {e group}. Footprints are taken over each phase's one-round
      analysis program, so [main]'s lifted locals participate: two
      loops sharing a counter interfere even though the counter never
      lives in the checkpointed heap.
    - {b Strip partitioning}: inside a round phase, a body statement
      [f()] whose callee is a counted sweep
      ([x = lo; while (x < hi) {{ B; x = x + 1 }}] with statically
      constant bounds, from {!Dirty_ai}'s value approximation) is split
      into iteration strips. Each strip is a self-contained program
      running the sweep over exactly its range with constant bounds, and
      its footprint is that program's may-read/may-write as computed by
      {!Dirty_ai} — the same analysis behind the phase footprints. The
      strips parallelize only if every pair is footprint-disjoint. The
      body refusals are semantic, not limits of the analysis: each strip
      is a fresh activation of the sweep function, so a body that reads
      a local before assigning it (carrying a value across iterations),
      keeps a local array or returns is never split. A body with a
      nested loop is refused too; the footprint analysis could bound it,
      and lifting that refusal is a decision of its own.

    Every refusal — interfering phases, a conflicting strip pair, a
    sweep shape or body that cannot be split — is a {!Finding.Warning}
    naming its reason (for conflicts, the conflicting region pair); the
    work stays serial. The dynamic dual (observed per-domain dirty/read
    sets must not intersect) is re-checked on every parallel run by
    the [Ickpt_analysis.Elide_oracle.Parallel] oracle. *)

type footprint = {
  fp_reads : (string * Regions.t) list;
      (** may-read region per touched global (or lifted local), name-keyed *)
  fp_writes : (string * Regions.t) list;  (** may-write, same keying *)
}

val footprint_conflict :
  footprint -> footprint -> (string * Regions.t * Regions.t) option
(** The first global on which the two footprints interfere: a write
    region of one meets the read∪write region of the other. [None] means
    the footprints may run concurrently (common reads allowed). *)

module Schedule : sig
  type strip = {
    st_index : int;
    st_lo : int;
    st_hi : int;  (** executes iterations [st_lo, st_hi) *)
    st_program : Minic.Ast.program;
        (** self-contained: [main] calls the sweep rewritten to exactly
            this range (constant bounds, so the strip re-reads no bound
            globals) *)
    st_foot : footprint;
  }

  type sweep = {
    sw_func : string;  (** the nullary sweep callee *)
    sw_var : string;  (** its induction local *)
    sw_lo : int;
    sw_hi : int;  (** full range [sw_lo, sw_hi), statically constant *)
    sw_strips : strip list;  (** pairwise footprint-disjoint *)
  }

  type unit_plan =
    | Serial of Minic.Ast.stmt  (** executes on the master session *)
    | Par_sweep of sweep  (** strips fan out, logs replay in strip order *)

  type phase_sched = {
    ps_phase : Phase_discover.phase;
    ps_foot : footprint;  (** whole-phase footprint, lifted locals included *)
    ps_group : int;
        (** phases sharing a group id are pairwise non-interfering and
            may execute concurrently; groups are maximal runs of
            consecutive phases *)
    ps_units : unit_plan list;
        (** round phases: the body partitioned into serial statements
            and parallel sweeps; empty for setup phases *)
  }

  type t = {
    sc_domains : int;
    sc_phases : phase_sched list;
    sc_findings : Finding.t list;  (** refusals, [Warning] severity *)
    sc_seeded : bool;
        (** a strip range was widened by one cell ([seed_racy]) — the
            static footprints deliberately don't know *)
    sc_par_sweeps : int;  (** sweeps scheduled parallel *)
    sc_refused_sweeps : int;  (** sweep-shaped calls kept serial *)
    sc_groups : int;  (** multi-phase parallel groups *)
  }
end

val schedule :
  ?domains:int -> ?seed_racy:bool -> Auto_spec.t -> Schedule.t
(** Build the parallel schedule for an inferred program. [domains]
    (default 4, min 1) bounds strips per sweep. [seed_racy] widens the
    first parallel sweep's first strip by one cell {e after} all static
    checks — the executed ranges then overlap while the schedule still
    claims disjointness, which only the dynamic footprint oracle can
    catch; [sc_seeded] reports whether a sweep was actually available
    to seed. *)

val pp : Format.formatter -> Schedule.t -> unit
(** The schedule dump: per phase its group, units, strips and
    footprints, then the refusal findings. *)
