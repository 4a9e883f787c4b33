type derivation = {
  phase : Phase_model.phase;
  effects : Dirty_ai.result;
  writes_lists : bool;
  writes_bt : bool;
  writes_et : bool;
}

(* One analysis per phase model, shared by every derivation and by
   Barrier_elide's plans, mirroring Phase_model's own memoization. *)
let derivations : (Phase_model.phase, derivation) Hashtbl.t = Hashtbl.create 3

let derive phase =
  match Hashtbl.find_opt derivations phase with
  | Some d -> d
  | None ->
      let effects =
        Dirty_ai.analyze
          ~havoc:(Phase_model.input_globals phase)
          (Phase_model.env phase)
      in
      let writes g = not (Regions.is_bot (Dirty_ai.write_region effects g)) in
      let d =
        { phase;
          effects;
          writes_lists =
            writes Phase_model.g_se_reads || writes Phase_model.g_se_writes;
          writes_bt = writes Phase_model.g_bt;
          writes_et = writes Phase_model.g_et }
      in
      Hashtbl.add derivations phase d;
      d

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
