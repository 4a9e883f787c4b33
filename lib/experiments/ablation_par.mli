(** Domain-parallel execution ablation (BENCH_7): for each example
    workload (plus a larger synthetic stencil sized so fan-out has real
    work), the {!Staticcheck.Interfere} schedule is executed at 1, 2 and
    4 domains and each row is gated by the
    {!Ickpt_analysis.Elide_oracle} [Parallel] sequential-identity oracle —
    chain byte-identity in both modes plus pairwise observed-footprint
    disjointness. Wall-clock speedup is reported per row relative to the
    1-domain execution of the same schedule; the speedup {e check} only
    applies when the host has a core per domain measured ([host_cores],
    recorded in the document, >= 4) — elsewhere it reads N/A, while the
    identity and disjointness gates still run on every row. *)

type row = {
  workload : string;
  domains : int;  (** domains the schedule was built and executed for *)
  par_sweeps : int;  (** sweeps the schedule parallelized *)
  refused : int;  (** sweep refusals (conflicting or unrecognized) *)
  groups : int;  (** phase groups with >= 2 members *)
  par_units : int;  (** parallel units the run actually executed *)
  seq_seconds : float;  (** sequential run, best wall-clock *)
  par_seconds : float;  (** parallel run at [domains], best wall-clock *)
  speedup : float;  (** 1-domain [par_seconds] / this row's *)
  identical : bool;  (** chains byte-identical to sequential, both modes *)
  oracle_ok : bool;  (** {!Ickpt_analysis.Elide_oracle.ok} *)
}

val name : string
val title : string

val measure_all : unit -> row list
(** Three rows (1, 2 and 4 domains) per workload: the four
    [examples/workloads/*.mc] programs and the built-in synthetic
    stencil. *)

val checks : host_cores:int -> row list -> Workload.check list
(** Oracle and identity pass on every row; something is actually
    parallelized; the conflicting kvlog sweep is refused, not
    parallelized; >= 1.5x speedup at 4 domains somewhere — N/A unless
    [host_cores >= 4]. *)

val doc : row list -> Bench_doc.t
(** The BENCH_7.json document: the rows and their {!checks}. *)

val run : scale:Workload.scale -> Format.formatter -> Workload.check list
