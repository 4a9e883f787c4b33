(** Domain-local dirty log: the tracking store a parallel unit (an
    iteration strip or an independent phase) runs against on its own
    OCaml domain.

    A unit never touches the master {!Wheap}: it interprets its program
    over a private copy of the globals ({!snapshot}), while the store
    records every global write in program order and every
    {e read-before-write} (upward-exposed read — a cell the unit wrote
    first is its own, not shared input). After all domains join, the
    master {!replay}s each unit's write log {e in schedule order}
    through the barriered [Wheap.store], so the write-barrier stream,
    the modified flags, and hence the emitted checkpoint segments are
    byte-identical to a sequential run — provided the units' footprints
    were really disjoint, which {!observed_reads}/{!observed_writes}
    let the oracle re-check dynamically (the parallel dual of
    invariant I8). {!mark} entries delimit checkpoint boundaries inside
    one unit's log (one per round of a phase unit). *)

type snapshot
(** Immutable copy of every global's current value. *)

val snapshot_of_wheap : Wheap.t -> snapshot

type t

val create : snapshot -> t
(** A fresh tracking store seeded from the snapshot; logs start empty.
    Each parallel unit gets its own [t] — the type is not thread-safe,
    it is {e per-domain} by construction. *)

val store : t -> Minic.Interp.global_store

val mark : t -> unit
(** Append a checkpoint delimiter to the write log. *)

val marks : t -> int

val writes : t -> int
(** Logged write entries (marks excluded). *)

val replay :
  Minic.Interp.global_store -> on_mark:(unit -> unit) -> t -> unit
(** Apply the unit's write log, oldest first, through the given store;
    [on_mark] fires at each {!mark} (the master takes a checkpoint
    there). Stops logging nothing — replay does not modify [t]. *)

val observed_reads : t -> (string * Staticcheck.Regions.t) list
(** Upward-exposed reads actually performed, as one region per global
    (scalars read as cell [0]), name-sorted. *)

val observed_writes : t -> (string * Staticcheck.Regions.t) list
