(** Heap-region lattice: sets of integer intervals.

    A region describes which part of one storage location an effect can
    touch — a set of array cells as sorted disjoint intervals, a scalar
    as the singleton cell [0], [Top] for "any cell". Where a cell set
    would widen any computed index to the whole array, a region keeps
    interval bounds derived from loop guards ([temp[8..55]] for a blur
    pass over the interior rows), which is what lets the barrier-elision
    planner prove the complement definitely clean.

    Interval bounds use [min_int]/[max_int] as -oo/+oo; the helpers in
    {!section-itv} saturate instead of overflowing. The lattice has the
    usual abstract-interpretation kit: [join], [meet], [leq], and a
    [widen] that guarantees termination of fixpoint iteration by
    collapsing a growing region to its hull and jumping unstable bounds
    to infinity. *)

(** {1:itv Intervals} *)

type itv = { lo : int; hi : int }
(** Inclusive on both ends; invariant [lo <= hi]. *)

val itv : int -> int -> itv
(** @raise Invalid_argument when [lo > hi]. *)

val itv_point : int -> itv

val itv_full : itv
(** [[-oo, +oo]]. *)

val itv_join : itv -> itv -> itv
val itv_meet : itv -> itv -> itv option
(** [None] when the intervals are disjoint. *)

val itv_leq : itv -> itv -> bool

val itv_widen : itv -> itv -> itv
(** [itv_widen a b]: bounds of [b] that escaped [a] jump to infinity. *)

(** Saturating interval arithmetic (sound for the mini-C evaluator:
    division/modulo by a range containing zero returns [itv_full]). *)

val itv_add : itv -> itv -> itv
val itv_sub : itv -> itv -> itv
val itv_neg : itv -> itv
val itv_mul : itv -> itv -> itv
val itv_div : itv -> itv -> itv
val itv_rem : itv -> itv -> itv

(** {1 Regions} *)

type t = Bot | Segs of itv list  (** sorted, disjoint, non-adjacent *) | Top

val bot : t
val top : t
val point : int -> t
val interval : int -> int -> t
val of_list : int list -> t
val of_itv : itv -> t

val is_bot : t -> bool
val mem : int -> t -> bool

val join : t -> t -> t
val meet : t -> t -> t
val leq : t -> t -> bool
val equal : t -> t -> bool

val widen : t -> t -> t
(** Hull-collapsing widening: any strictly growing chain
    [r0 <= widen r0 r1 <= ...] stabilizes after finitely many steps. *)

val inter : t -> t -> t
(** Exact set intersection — an alias of {!meet}, named for the
    interference analysis: on [Segs] the meet is precise, so an empty
    intersection is a definite no-common-cell fact, not an
    approximation. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [inter a b] is {!Bot}: no cell lies in both
    regions. The pairwise precondition for scheduling two footprints on
    separate domains. *)

val clamp : lo:int -> hi:int -> t -> t
(** Meet with [[lo, hi]] — e.g. restrict a store region to the extent of
    the written array. [Top] clamps to the full extent. *)

val clamp_global : Minic.Check.env -> string -> t -> t
(** {!clamp} to the named global's {!Minic.Check.extent}; a name no
    global has leaves the region as it is. *)

val complement_in : lo:int -> hi:int -> t -> t
(** The cells of [[lo, hi]] {e not} in the region — the definitely-clean
    residue of a may-write region. *)

val hull : t -> itv option
(** Smallest single interval containing the region; [None] for [Bot]. *)

val pp : Format.formatter -> t -> unit
(** [0..8], [0..8,12], [*] for [Top], [.] for [Bot]. *)

(** {1 Region maps} (one region per global, keyed by
    {!Minic.Check.env} global id) *)

module Gid_map : Map.S with type key = int

type map = t Gid_map.t

val map_empty : map
val map_join : map -> map -> map
val map_widen : map -> map -> map
val map_leq : map -> map -> bool
val map_add : int -> t -> map -> map
(** Join the region into the existing binding. *)

val region_of : map -> int -> t
(** [Bot] when the global is unbound (never written). *)

val pp_map : Minic.Check.env -> Format.formatter -> map -> unit
(** With the env's global names, e.g. [{kernel[0..8], temp[8..55],
    changed}]. *)
