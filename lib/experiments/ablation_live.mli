(** Liveness-minimization ablation (BENCH_6): for each example workload
    (plus an all-live control program), incremental checkpoint bytes of
    the unminimized guarded-specialized run vs the minimized run
    (an [Engine.Minimized] run), the tracked shape nodes the
    {!Staticcheck.Live} analysis kept vs dropped, on-disk pack sizes of
    both chains through the content-addressed store, and the
    {!Ickpt_analysis.Elide_oracle} [Liveness] restore-equivalence verdict
    gating every row. The chains are the oracle's own two runs. *)

type row = {
  workload : string;
  epochs : int;
  baseline_bytes : int;
  minimized_bytes : int;
  baseline_per_seg : float;
  minimized_per_seg : float;
  reduction : float;
  blocks_total : int;
  blocks_kept : int;
  blocks_dropped : int;
  pack_baseline : int;
  pack_minimized : int;
  live_cells : int;
  resumes : int;
  reads_checked : int;
  oracle_ok : bool;
}

val name : string
val title : string

val measure_all : unit -> row list
(** One row per workload: the four [examples/workloads/*.mc] programs
    and the built-in all-live control. *)

val checks : row list -> Workload.check list
(** Oracle passes everywhere; >= 10% reduction somewhere; honest zeros
    (no reduction claimed where no block was dropped); the all-live
    control drops nothing; no silently skipped resumes. *)

val doc : row list -> Bench_doc.t
(** The BENCH_6.json document: the rows and their {!checks}. *)

val run : scale:Workload.scale -> Format.formatter -> Workload.check list
