type derivation = {
  phase : Phase_model.phase;
  effects : Effects.t;
  writes_lists : bool;
  writes_bt : bool;
  writes_et : bool;
}

let derive phase =
  let env = Phase_model.env phase in
  let summaries = Effects.compute env in
  let eff = Effects.of_func summaries "main" in
  { phase;
    effects = eff;
    writes_lists =
      Effects.writes_name env eff Phase_model.g_se_reads
      || Effects.writes_name env eff Phase_model.g_se_writes;
    writes_bt = Effects.writes_name env eff Phase_model.g_bt;
    writes_et = Effects.writes_name env eff Phase_model.g_et }

(* The attribute tree's spine (Attributes, BTEntry, ETEntry) is always
   Clean: no phase API can repoint it, and no model global maps to it.
   The leaves follow the inferred write effects. Cf. Attrs.attr_shape and
   Decls.shape_of_dirty, which build the same tree from declarations and
   from observed traces respectively. *)
let shape ~klasses d =
  let open Jspec.Sclass in
  let st written = if written then Tracked else Clean in
  match klasses with
  | [ k_attr; k_se; _k_varref; k_btentry; k_bt; k_etentry; k_et ] ->
      let lists = if d.writes_lists then Unknown else Clean_opaque in
      shape ~status:Clean k_attr
        [| Exact (shape ~status:(st d.writes_lists) k_se [| lists; lists |]);
           Exact
             (shape ~status:Clean k_btentry
                [| Exact (leaf ~status:(st d.writes_bt) k_bt) |]);
           Exact
             (shape ~status:Clean k_etentry
                [| Exact (leaf ~status:(st d.writes_et) k_et) |]) |]
  | _ -> invalid_arg "Infer.shape: expected the seven Attrs klasses"

let derived_shape ~klasses phase = shape ~klasses (derive phase)
