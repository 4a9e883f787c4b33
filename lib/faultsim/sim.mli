(** A simulated filesystem behind {!Ickpt_core.Vfs.t}, with fault injection.

    The simulator models exactly the durability contract the storage layer
    assumes of a real disk:

    - data handed to [writer.write] is {e visible} (a subsequent
      [read_file] sees it) but not yet {e durable};
    - [writer.sync] advances the per-file durable ("fsynced") mark to the
      current length;
    - [rename] is atomic;
    - a power loss preserves every byte up to the durable mark, and {e any
      prefix} of what was written after it (an append-only log never loses
      a middle byte on a journaling filesystem — only a tail), possibly
      with the torn tail corrupted.

    Every mutating call ([write], [sync], [truncate], [rename], [remove])
    is one {e op}, numbered globally from 0. A {!fault} names the op at
    which the machine dies (or the write channel starts failing), letting a
    harness enumerate "crash after byte N of op K" points exhaustively. *)

exception Crashed
(** Raised by every vfs operation once the simulated machine has lost
    power. ([writer.close] is the exception: closing a dead handle is a
    harmless no-op, so [Fun.protect] finalizers pass the original
    {!Crashed} through untouched.) *)

exception Io_error of string
(** An ordinary write error (disk full, EIO): the op fails but the machine
    keeps running — what {!Ickpt_core.Async_writer} must survive. *)

(** What the torn tail looks like after the power loss. *)
type mode =
  | Torn  (** every written byte persisted, including the partial last op *)
  | Drop_unsynced  (** everything after the last [sync] is lost *)
  | Corrupt_tail  (** like [Torn], but one unsynced byte is flipped *)

val modes : mode list
(** Every {!mode}, in declaration order. *)

val pp_mode : Format.formatter -> mode -> unit
(** ["torn"], ["drop-unsynced"] or ["corrupt-tail"]. *)

type fault =
  | No_fault
  | Crash_at of { op : int; byte : int; mode : mode }
      (** Power loss during op [op]: the first [byte] bytes of that op are
          applied (for non-write ops, [byte = 0] means "before", anything
          else "after"), then the durable state is frozen per [mode] and
          every subsequent operation raises {!Crashed}. *)
  | Fail_write_at of int
      (** [write] and [sync] ops numbered >= the given op raise
          {!Io_error}; everything else keeps working. *)

type t

val create : ?fault:fault -> ?write_delay:float -> unit -> t
(** An empty simulated filesystem. [write_delay] (seconds) makes each
    write op dwell before taking effect — lets a test deterministically
    race the async writer. *)

val seeded : ?fault:fault -> (string * string) list -> t
(** A filesystem pre-populated with the given [path, contents] pairs, all
    of them fully durable. *)

val vfs : t -> Ickpt_core.Vfs.t

val crashed : t -> bool

val ops : t -> int
(** Ops executed (or attempted) so far. *)

val op_log : t -> (string * int) list
(** One [(kind, length)] per op executed, oldest first: kind is ["write"],
    ["sync"], ["truncate"], ["rename"] or ["remove"]; length is the byte
    count for writes and 1 otherwise. The crash-point enumerator reads
    this off a fault-free reference run. *)

val durable : t -> (string * string) list
(** The post-crash contents of every file: the frozen snapshot if the
    machine crashed, the current synced-plus-written contents otherwise. *)

val restart : t -> t
(** "Power back on": a fresh fault-free filesystem holding {!durable}'s
    contents, everything durable — the second life a recovery runs in. *)
