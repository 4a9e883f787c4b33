(** Interprocedural effect analysis: an abstract interpretation of
    mini-C that computes, per function, a may-read and a may-write set
    over heap regions ({!Regions.t} per global — array segments as
    interval sets, scalars as the cell [0]), keyed by
    {!Minic.Check.env}'s global numbering.

    Scalar values are tracked as intervals, loop bodies are iterated to a
    local fixpoint with widening and re-entered through the loop guard
    (so a store [temp[p] = ...] under [while (p < npixels - width)] lands
    in [temp[8..55]], not the whole array), branches with statically
    decided conditions contribute nothing from the dead arm, and
    functions that are never called contribute nothing at all. Every
    access is clamped to its global's extent. Call effects are
    summarised per function — transitive, context-insensitive, with
    parameter intervals joined over all call sites; reads and writes
    converge in the same fixpoint.

    Soundness contract (invariant I8): for any terminating concrete run,
    every global cell actually written is contained in {!main_writes};
    the rest of each global's extent is definitely clean. The
    [Ickpt_analysis.Elide_oracle.Inferred_elision] oracle re-verifies this
    dynamically. Likewise every global cell the run reads is contained in
    {!main_reads} (checked by the test suite on random programs). *)

type result

val analyze :
  ?havoc:string list -> ?widen_delay:int -> Minic.Check.env -> result
(** Converge the global fixpoint (function summaries, parameter and
    return intervals, global value approximations) over the checked
    program. Terminates on any input: interval growth is widened after
    [widen_delay] plain-join rounds (default 3 — two precise rounds
    cover the common init → first-update pattern). [widen_delay:0]
    widens from the first unstable round: maximally imprecise, still
    terminating — the termination property the test suite checks.

    [havoc] names globals to treat as arbitrary external input (value
    {!Regions.itv_full} from the start) instead of their declared
    initializers. mini-C programs are closed, so the default is sound
    for real workloads; the {!Phase_model} programs encode their input
    in zero-initialized tables ({!Phase_model.input_globals}) and must
    be analyzed with those havoced. *)

val env : result -> Minic.Check.env

val rounds : result -> int
(** Fixpoint rounds taken — exposed for termination tests. *)

val func_reads : result -> string -> Regions.map
(** Transitive may-read regions of one call to the function; empty for
    an unknown or never-called function. *)

val func_writes : result -> string -> Regions.map
(** Transitive may-write regions of one call to the function; empty for
    an unknown or never-called function. *)

val main_reads : result -> Regions.map
(** The whole program's may-read regions: [func_reads r "main"]. *)

val main_writes : result -> Regions.map
(** The whole program's may-write regions: [func_writes r "main"]. *)

val write_region : result -> string -> Regions.t
(** [main_writes] restricted to one global, by name, clamped to the
    global's extent; {!Regions.Bot} when provably never written. *)

val global_value : result -> string -> Regions.itv
(** Flow-insensitive over-approximation of the values the global (for
    arrays: any element) can hold at any time. *)

val constant : result -> Minic.Ast.expr -> int option
(** The statically known value of an expression: literals, globals whose
    {!global_value} is a single point, and arithmetic over those; [None]
    for anything else (locals, calls, a division by zero). *)

val pp_effects : result -> Format.formatter -> string -> unit
(** One function's summary, e.g.
    [reads {npixels, temp[8..55]} writes {image[8..55]}]. *)
