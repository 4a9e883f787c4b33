(** The checkpointable annotation store of the program analysis engine —
    the paper's Figure 4. Every statement of the analyzed program owns an
    [Attributes] object with three children:

    {v
    Attributes
      +-- SEEntry ---- reads:  VarRef -> VarRef -> ...   (side effects)
      |            \-- writes: VarRef -> ...
      +-- BTEntry ---- BT   (binding-time annotation)
      +-- ETEntry ---- ET   (evaluation-time annotation)
    v}

    All mutation goes through [set_*] functions that use change-detecting
    write barriers, so an analysis iteration that recomputes the same value
    leaves objects clean — which is what makes incremental checkpointing
    profitable as fixpoints converge.

    Replacing a side-effect set allocates a fresh [VarRef] chain; the old
    chain becomes unreachable garbage (it stays in the heap's id registry
    but is never visited from the roots, exactly like dead Java objects
    awaiting collection — cf. the paper's Section 1 remark). *)

open Ickpt_runtime

type t

val create : n_stmts:int -> t

val heap : t -> Heap.t

val schema : t -> Schema.t

val n_stmts : t -> int

val roots : t -> Model.obj list
(** The [Attributes] objects, in sid order — the compound-structure roots
    handed to the checkpointer. *)

val attr : t -> int -> Model.obj

val se_entry : t -> int -> Model.obj
(** The statement's [SEEntry] node (for the elision oracle's id → site
    mapping). *)

val bt_obj : t -> int -> Model.obj
val et_obj : t -> int -> Model.obj

(** {1 Barrier elision} *)

type barrier_plan = {
  lists_elided : bool;
  bt_elided : bool;
  et_elided : bool;
}
(** Which setters run with their write barrier compiled out — no
    [modified] flag, no trace hook (see {!Ickpt_runtime.Barrier} raw
    ops). Installed per phase from a {!Staticcheck.Barrier_elide} plan:
    an elided site is one the phase provably never writes, so the
    rerouted setters are statically dead; if the proof were wrong, the
    missing flags would surface as a checkpoint byte divergence in the
    elision oracle. *)

val no_elision : barrier_plan

val barrier_plan : t -> barrier_plan

val set_barrier_plan : t -> barrier_plan -> unit

(** {1 Annotation values} *)

val bt_unknown : int
val bt_static : int
val bt_dynamic : int
val et_spec_time : int
val et_run_time : int

(** {1 Accessors} (sid-indexed; all setters return [true] iff changed) *)

val set_reads : t -> int -> int list -> bool
(** Store the sorted list of global-variable ids read by the statement. *)

val get_reads : t -> int -> int list

val set_writes : t -> int -> int list -> bool

val get_writes : t -> int -> int list

val set_bt : t -> int -> int -> bool

val get_bt : t -> int -> int

val set_et : t -> int -> int -> bool

val get_et : t -> int -> int

(** {1 Specialization classes for the phases} (paper Section 4.2) *)

val sea_shape : t -> Jspec.Sclass.shape
(** During side-effect analysis: the [SEEntry] and its lists may change
    (lists have no static shape — [Unknown] children); [BT]/[ET] are clean. *)

val bta_shape : t -> Jspec.Sclass.shape
(** During binding-time analysis: only the [BT] object may be modified;
    the side-effect lists are clean-opaque, [ET] clean (cf. Figure 6). *)

val eta_shape : t -> Jspec.Sclass.shape
(** During evaluation-time analysis: only the [ET] object may change. *)

val klasses : t -> Model.klass list
(** All seven klasses, for introspection/tests. *)
