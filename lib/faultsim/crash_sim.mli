(** The chain log's crash sweep, as a {!Sweep} workload: after any
    crash, loading the log and recovering yields a heap deeply equal to
    some committed checkpoint state (never a later state, never garbage),
    recovery neither raises nor returns [Error], and the recovered log
    accepts further checkpoints that remain readable. Configs marked
    [pre_torn] start from a log that already carries a torn tail from an
    earlier life, covering the resume-after-crash path (truncate, then
    append). *)

open Ickpt_core

type config = {
  label : string;
  async : bool;  (** write segments through {!Async_writer} *)
  policy : Policy.t;
  compact_above : int;  (** as in {!Manager.create} *)
  pre_torn : bool;  (** seed the log with an older chain plus torn garbage *)
}

val config :
  ?async:bool -> ?compact_above:int -> ?pre_torn:bool -> Policy.t -> config
(** Build a config with a descriptive label. Defaults: sync, no
    compaction, fresh log. *)

val default_configs : config list
(** Sync and async sinks crossed with all four {!Policy} variants, with and
    without auto-compaction, plus two pre-torn resume configs — 18 total. *)

val workload :
  ?rounds:int -> config -> Ickpt_runtime.Model.obj list Sweep.workload
(** [rounds] (default 5) is the number of mutate-and-checkpoint rounds
    after the base checkpoint. *)
