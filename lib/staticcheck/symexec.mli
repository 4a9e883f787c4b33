(** A symbolic interpreter for {!Jspec.Cklang} over a {!Symheap}.

    Under one valuation of the heap family's boolean variables, every
    [modified] test and null test on shape-known structure is decided, so
    control flow is deterministic; what stays symbolic is the {e data}: the
    ids and int fields of the symbolic objects, and everything below an
    opaque summary. Execution therefore yields, per valuation, an {e emit
    trace}: the exact sequence of abstract byte events the code writes —
    {!E_write} of a symbolic integer (an id, a class id, an int field, a
    child id, …) and {!E_generic}, the summary event for "checkpoint this
    opaque subtree with the generic incremental algorithm". Two routines
    that produce the same trace (and the same final flag state) for a
    valuation write byte-identical checkpoints on every concrete heap that
    materializes it, because the varint encoding of a written value is a
    function of the value alone.

    The interpreter executes both sides of the translation-validation
    obligation: the {e generic} program ({!Jspec.Generic_method.program},
    or any program handed to [Pe.specialize ~program]) with its virtual
    [record]/[fold]/[checkpoint] dispatch resolved against the symbolic
    nodes' known classes, and {e residual} code, where [Call_generic]
    fallbacks on shape-known nodes are expanded into the generic program
    itself and on opaque summaries become {!E_generic} events.

    Outcomes distinguish three situations: a {!Trace}; {!Crashed}, a
    definite runtime error on every heap of this valuation (e.g. a null
    dereference in mutated code — itself a divergence from the generic
    algorithm, which never crashes on a conforming heap); and the
    {!Unverifiable} exception, raised when control depends on something
    outside the symbolic domain (e.g. a branch on an opaque subtree's
    flag), which aborts verification rather than risking a wrong verdict. *)

(** Symbolic integers: the abstract byte values of emit events. Equality
    is structural; distinct places denote distinct objects, so distinct
    [I_id]s (and [I_field]s) are distinct concrete values under
    {!Symheap.materialize}. *)
type sint =
  | I_const of int
  | I_id of place  (** the object's unique id *)
  | I_kid of place  (** class id — only opaque places; known nodes fold *)
  | I_nints of place
  | I_nchildren of place
  | I_field of place * sint  (** scalar slot of an object *)
  | I_modified of place  (** residue: an opaque subtree's flag *)
  | I_is_null of place  (** residue: nullness below an opaque summary *)
  | I_not of sint
  | I_cond of sint * sint * sint

(** A symbolic object identity. *)
and place =
  | P_node of int  (** shape-known node, by {!Symheap.node} index *)
  | P_opaque of int * sint list
      (** opaque summary [oidx], plus the child-slot path walked below
          it (empty for the summary object itself) *)

type event =
  | E_write of sint  (** [d.writeInt] of this abstract value *)
  | E_generic of place
      (** generic incremental checkpoint of this opaque subtree *)

type trace = {
  events : event list;  (** in emission order *)
  flags : bool array;  (** final [modified] flag per symbolic node *)
}

type outcome = Trace of trace | Crashed of string

exception Unverifiable of string

val run :
  ?program:Jspec.Cklang.program ->
  ?fuel:int ->
  Symheap.t -> Symheap.valuation -> Jspec.Cklang.stmt list -> outcome
(** Execute [stmts] with variable 0 bound to the symbolic root.
    [program] (default {!Jspec.Generic_method.program}) resolves virtual
    dispatch and [Call_generic] expansion. [fuel] bounds executed
    statements (default 1_000_000); exhaustion raises {!Unverifiable}.
    @raise Unverifiable as described above. *)

val generic_trace :
  ?program:Jspec.Cklang.program ->
  Symheap.t -> Symheap.valuation -> outcome
(** The reference trace: [run] of [program.checkpoint]. *)

val pp_event : Format.formatter -> event -> unit
