(** The crash-sweep driver behind invariant I7 (DESIGN.md): after a power
    loss at any byte of any operation, recovery yields a committed prefix
    of the checkpoint history and the recovered storage accepts further
    checkpoints. Its I/O-error variant ({!run_errors}) fails one operation
    instead, the machine running on: every epoch the run was told is
    durable must then survive a reopen and restore to the state taken.

    A {!workload} is run once fault-free on a {!Sim} to record its
    committed states and op trace; the driver then re-runs it once per
    (op, byte offset, {!Sim.mode}) crash point and hands the surviving
    files to the workload's recovery check. {!Store_sim} (the pack +
    epoch index) and {!Service_sim} (the multi-tenant group commit) are
    workloads of this driver. *)

open Ickpt_runtime

type violation = {
  v_op : int;  (** op index the crash was injected at *)
  v_byte : int;  (** bytes of that op applied before the power loss *)
  v_mode : Sim.mode option;  (** [None]: a one-shot I/O error ({!run_errors}) *)
  v_reason : string;
}

type report = {
  r_label : string;
  r_points : int;  (** distinct (op, byte) crash points enumerated *)
  r_runs : int;  (** crash points × modes actually executed *)
  r_violations : violation list;
}

type 's workload = {
  label : string;
  seed : (string * string) list;
      (** files durable before the run starts; [[]] for a fresh disk *)
  run : Ickpt_core.Vfs.t -> commit:('s -> unit) -> base:(unit -> unit) -> unit;
      (** The deterministic workload. It calls [commit s] with the state
          [s] of every checkpoint once the storage reports it durable, and
          [base ()] once a crash from that op on must be recoverable
          (before a fresh store's base checkpoint is durable there is
          legitimately nothing to recover). A run that never calls [base]
          is swept from op 0. It catches {!Sim.Io_error}, which only
          {!run_errors} injects, and goes on checkpointing. *)
  check : Ickpt_core.Vfs.t -> exact:bool -> 's list -> (unit, string) result;
      (** Recovery on the surviving files, given committed states, oldest
          first: every state of the fault-free run ([~exact:false]: a
          crash may lose the ones after it), or exactly the states the
          faulty run was told are durable ([~exact:true]: each must
          survive). *)
}

val run : ?density:int -> 's workload -> report
(** Sweep every crash point of the workload. [density] (default 2) adds
    that many evenly spaced interior byte offsets per write op on top of
    the always-tested [{0; 1; len-1; len}]; other ops crash before or
    after. *)

val run_errors : ?density:int -> 's workload -> report
(** At each point {!run} enumerates, run the workload once with a
    one-shot {!Sim.Fail_at} error there instead of a power loss (so
    [r_runs = r_points]), and check the files it leaves with [~exact:true]
    against the states it reported durable; a run that raises is a
    violation. The report's label is the workload's with ["/io-error"]
    appended. *)

(** {2 Shared pieces of the workloads} *)

type world = {
  schema : Schema.t;
  roots : Model.obj list;
  mutate : int -> unit;
}

val world : offset:int -> world
(** Seven objects of two classes, every int field shifted by [offset].
    [mutate r] writes two values unique to round [r], so every committed
    state is pairwise distinct and "recovered state = some committed
    state" is exactly the prefix property. *)

val snapshot : world -> Model.obj list
(** The world's state as a committed state: a full checkpoint of its live
    roots, restored into a fresh heap (immune to later mutation), never
    read back from the storage under test. Take it right after a
    checkpoint, when the modified flags are already clear. *)

val roots_equal : Model.obj list -> Model.obj list -> bool
(** Deep equality of two root lists. *)

val check_epochs :
  exact:bool ->
  restore:(int -> Model.obj list) ->
  (int * Model.obj list) list ->
  int list ->
  (unit, string) result
(** [check_epochs ~exact ~restore committed epochs]: every surviving epoch
    was committed, and restores to its committed roots; with [exact],
    every committed epoch from the oldest survivor on survives too (a gc
    may have dropped older ones). *)

(** {2 Verdicts} *)

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
(** One line with the tallies, then one per violation. *)

val pp_summary : Format.formatter -> report list -> unit
(** {!pp_report} for each, then a pass/fail tally. *)
