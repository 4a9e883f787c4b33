(** Barrier-elision ablation (extension, not in the paper): per-phase
    checkpoint-construction overhead with and without the static
    {!Staticcheck.Barrier_elide} plans, in guarded-specialized mode.

    Two metrics per (workload, phase):
    - wall-clock seconds (best-of-repeats), split into construction and
      guard validation — the timing the JSON records;
    - {!Jspec.Guard} object-visit counts — the deterministic form of the
      same saving (elided runs visit zero objects when every guard is
      statically discharged).

    [ickpt_bench barrier] runs this over the example mini-C workloads
    and writes the rows to [BENCH_4.json]. *)

type row = {
  workload : string;
  phase : string;
  bytes : int;  (** phase checkpoint bytes (identical in both runs) *)
  instrumented_seconds : float;
  instrumented_guard_seconds : float;
  elided_seconds : float;
  elided_guard_seconds : float;
  guard_visits_instrumented : int;  (** objects the runtime guard walked *)
  guard_visits_elided : int;
  bytes_identical : bool;
}

val name : string
val title : string

val reduction : row -> float
(** Percent of (construction + guard) wall-clock removed by elision. *)

val measure : ?repeats:int -> (string * Minic.Ast.program) list -> row list
(** One row per (workload, phase); seconds are per-phase minima over
    [repeats] (default 3) full engine runs. *)

val checks : row list -> Workload.check list

val doc : row list -> Bench_doc.t
(** The [BENCH_4.json] document: the rows and their {!checks}. *)

val run : scale:Workload.scale -> Format.formatter -> Workload.check list
(** Registry entry point over the built-in generator workloads
    ([scale >= 1.0] raises the repeat count). *)
