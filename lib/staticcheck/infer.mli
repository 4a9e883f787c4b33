(** Derivation of specialization classes from static effect analysis.

    Running {!Dirty_ai} over a {!Phase_model}, with the model's input
    tables havoced ({!Phase_model.input_globals}), yields, per phase,
    which attribute-tree leaves the phase can possibly modify; {!shape}
    turns that into the [Sclass.shape] the phase *should* declare. For the
    paper's three phases this reproduces the hand-written shapes in
    [Ickpt_analysis.Attrs] — but derived, not trusted. *)

type derivation = {
  phase : Phase_model.phase;
  effects : Dirty_ai.result;  (** the effect analysis of one phase run *)
  writes_lists : bool;  (** the [SEEntry] list slots may change *)
  writes_bt : bool;
  writes_et : bool;
}

val derive : Phase_model.phase -> derivation
(** Memoized per phase. *)

val shape :
  klasses:Ickpt_runtime.Model.klass list -> derivation -> Jspec.Sclass.shape
(** Build the derived specialization class over the seven Attrs klasses
    (in [Attrs.klasses] order: Attributes, SEEntry, VarRef, BTEntry, BT,
    ETEntry, ET).
    @raise Invalid_argument on any other klass list. *)

val derived_shape :
  klasses:Ickpt_runtime.Model.klass list ->
  Phase_model.phase -> Jspec.Sclass.shape
