(** Shared machinery for the evaluation experiments: scaled workload
    construction, steady-state measurement, and qualitative shape checks.

    Absolute times depend on the host; what the experiments assert (and
    what {!check} records) are the paper's {e relationships}: who wins, how
    speedups move along each axis, where crossovers sit. *)

open Ickpt_synth

type scale = float
(** 1.0 = the paper's 20,000 structures; the default bench run uses 0.25. *)

val structures : scale -> int

val config :
  scale:scale -> list_len:int -> n_int_fields:int -> pct:int ->
  modified_lists:int -> last_only:bool -> Synth.config

type measured = {
  bytes : int;  (** checkpoint size of the first (recorded) run *)
  seconds : float;  (** fastest repetition's construction time *)
}

val min_seconds : float
(** 0.020 — the least time, in seconds, a measured cell's repetitions
    sum to. *)

val measure :
  Synth.t ->
  (Ickpt_stream.Out_stream.t -> Ickpt_runtime.Model.obj -> unit) -> measured
(** Steady-state measurement: each repetition applies one mutation round
    (per the population's configuration) and times a checkpoint of every
    structure. Repetitions continue until there are at least 5 of them and
    their times sum to at least 20 ms. The first repetition's byte count is
    reported, and the fastest repetition's wall-clock time. *)

(** {1 Ready-made runners} *)

val generic_core : Ickpt_stream.Out_stream.t -> Ickpt_runtime.Model.obj -> unit
(** The hand-written generic incremental checkpointer (reference
    implementation, used for the full-vs-incremental comparison). *)

val full_core : Ickpt_stream.Out_stream.t -> Ickpt_runtime.Model.obj -> unit
(** Plain full checkpointing ({!Ickpt_core.Checkpointer.full_tree}). *)

val specialized :
  Ickpt_backend.Backend.t -> Jspec.Sclass.shape ->
  Ickpt_stream.Out_stream.t -> Ickpt_runtime.Model.obj -> unit

(** {1 Shape checks} *)

type status =
  | Pass
  | Fail
  | Not_applicable of string
      (** The check's host or scale precondition does not hold; the
          string names it. Never counted as a pass (nor as a failure). *)

type check = { label : string; status : status; detail : string }

val check : label:string -> ok:bool -> detail:string -> check
(** [Pass] or [Fail] by [ok]. *)

val requires : bool -> reason:string -> check -> check
(** [requires holds ~reason c] is [c] when the precondition [holds], and
    [c] made [Not_applicable reason] otherwise — whatever its own
    verdict was. [reason] names the unmet precondition. *)

val pp_checks : Format.formatter -> check list -> unit

val failures : check list -> check list
(** The checks that FAILed ([Not_applicable] ones are not failures). *)

val compare_runners :
  Synth.config ->
  baseline:(Synth.t -> Ickpt_stream.Out_stream.t -> Ickpt_runtime.Model.obj -> unit) ->
  subject:(Synth.t -> Ickpt_stream.Out_stream.t -> Ickpt_runtime.Model.obj -> unit) ->
  measured * measured * float
(** Build two identically-seeded populations (so object ids and mutation
    sequences coincide), measure each runner on its own population, and
    return [(baseline, subject, baseline.seconds /. subject.seconds)]. *)

(** {1 Mini-C workloads} *)

val load_program : string -> Minic.Ast.program
(** Parse a mini-C source file.
    @raise Minic.Parser.Parse_error and @raise Minic.Lexer.Lex_error on
    bad input. *)

val load_example : string -> Minic.Ast.program
(** [load_example "blur.mc"]: one of [examples/workloads/*.mc], found
    from the workspace root, the build tree or the test directory. *)

val generator_programs : unit -> (string * Minic.Ast.program) list
(** The built-in ["image"] and ["small"] generator programs. *)

(** {1 Scratch stores} *)

val with_temp_files :
  string -> (string -> string list) -> (string -> 'a) -> 'a
(** [with_temp_files name files f] runs [f path] on a fresh path in the
    temp directory derived from [name] and the process id, removing the
    [files path] before and after. *)

val with_store :
  Ickpt_runtime.Schema.t -> string -> (Ickpt_cas.Store.t -> 'a) -> 'a
(** A fresh content-addressed store on scratch files. *)

val full_body : Ickpt_runtime.Model.obj list -> string
(** The full-checkpoint bytes of the roots: two restored heaps agree when
    these do. *)
