(** Offline binding-time analysis of the generic checkpoint method with
    respect to a specialization class — the Tempo-style front half of the
    pipeline. Where {!Pe} produces residual code, this module produces the
    {e decisions}: which [modified] tests are static, which dispatches
    resolve, which subtrees disappear. {!Pe}'s output is property-tested
    against these decisions. *)

type bt = Static | Dynamic

type node = {
  shape : Sclass.shape;
  test_bt : bt;
      (** binding time of this object's [if (modified)] test: [Static] when
          the object is declared [Clean] (test eliminated), [Dynamic]
          otherwise *)
  recorded : bool;  (** does residual code contain recording for this node *)
  traversed : bool;
      (** does any residual code remain for the subtree rooted here *)
  children : decision array;
}

and decision =
  | D_skip  (** statically null child, or entirely clean subtree *)
  | D_inline of node  (** present child, traversal inlined *)
  | D_test_inline of node  (** nullable child: residual null test + inline *)
  | D_generic  (** unknown child: residual generic fallback *)

val analyze : Sclass.shape -> node

val static_test_count : node -> int
(** Number of [modified] tests eliminated across the tree. *)

val dynamic_test_count : node -> int

val pp : Format.formatter -> node -> unit
(** Two-level rendering: the shape tree annotated with S/D marks. *)

(** {1 Two-level view of the generic method}

    Classic offline BTA output: each statement of a generic method body,
    annotated with what the specializer will do to it for a receiver of a
    given shape. This is the Tempo-style artifact a user inspects to
    understand {e why} the residual code looks the way it does. *)

type action =
  | Reduced  (** disappears: static test is false / receiver clean *)
  | Selected  (** static conditional: one branch chosen at spec time *)
  | Unrolled  (** loop with static bounds: expanded *)
  | Resolved  (** virtual call on statically-known receiver: inlined *)
  | Fallback  (** call residualized to the generic algorithm *)
  | Residual  (** remains (possibly with reduced sub-parts) *)

val pp_action : Format.formatter -> action -> unit

val annotate_method :
  ?program:Cklang.program -> Sclass.shape -> Cklang.meth ->
  (Cklang.stmt * action) list
(** Annotate the top-level statements of [meth]'s body for a receiver of
    the given shape. (Non-recursive: child shapes get their own calls.) *)

val pp_two_level :
  Format.formatter -> (Cklang.stmt * action) list -> unit
