open Ickpt_runtime

type slot =
  | S_null
  | S_node of int
  | S_maybe of int * int
  | S_opaque of int

type node = {
  idx : int;
  shape : Jspec.Sclass.shape;
  path : string;
  flag_var : int option;
  slots : slot array;
}

type opaque = {
  oidx : int;
  opath : string;
  oclean : bool;
  present_var : int;
}

type var_kind = Flag of int | Present of int | Opaque_present of int

type t = {
  shape : Jspec.Sclass.shape;
  nodes : node array;
  opaques : opaque array;
  vars : var_kind array;
}

(* Preorder construction. Node indices, opaque indices and variable
   indices are all allocated in one left-to-right pass, so structurally
   equal shapes always yield the same symbolic heap. *)
let of_shape shape =
  Jspec.Sclass.validate shape;
  let nodes = ref [] and opaques = ref [] in
  let vars = Hashtbl.create 16 in
  let n_nodes = ref 0 and n_opaques = ref 0 and n_vars = ref 0 in
  let fresh_var kind =
    let v = !n_vars in
    incr n_vars;
    Hashtbl.replace vars v kind;
    v
  in
  let fresh_opaque ~path ~clean =
    let oidx = !n_opaques in
    incr n_opaques;
    let present_var = fresh_var (Opaque_present oidx) in
    opaques := { oidx; opath = path; oclean = clean; present_var } :: !opaques;
    oidx
  in
  let rec build path (s : Jspec.Sclass.shape) =
    let idx = !n_nodes in
    incr n_nodes;
    let flag_var =
      match s.Jspec.Sclass.status with
      | Jspec.Sclass.Tracked -> Some (fresh_var (Flag idx))
      | Jspec.Sclass.Clean -> None
    in
    let slots =
      Array.mapi
        (fun i child ->
          let cpath = Printf.sprintf "%s.children[%d]" path i in
          match child with
          | Jspec.Sclass.Null_child -> S_null
          | Jspec.Sclass.Exact cs -> S_node (build cpath cs).idx
          | Jspec.Sclass.Nullable cs ->
              (* The presence variable is allocated before the subtree's
                 own variables, mirroring the preorder of the nodes; its
                 node index is only known once the subtree is built. *)
              let v = fresh_var (Present (-1)) in
              let cn = build cpath cs in
              Hashtbl.replace vars v (Present cn.idx);
              S_maybe (cn.idx, v)
          | Jspec.Sclass.Unknown -> S_opaque (fresh_opaque ~path:cpath ~clean:false)
          | Jspec.Sclass.Clean_opaque ->
              S_opaque (fresh_opaque ~path:cpath ~clean:true))
        s.Jspec.Sclass.children
    in
    let node = { idx; shape = s; path; flag_var; slots } in
    nodes := node :: !nodes;
    node
  in
  let _root = build "root" shape in
  let by_idx n cmp l =
    let a = Array.make n (List.hd l) in
    List.iter (fun x -> a.(cmp x) <- x) l;
    a
  in
  { shape;
    nodes = by_idx !n_nodes (fun n -> n.idx) !nodes;
    opaques =
      (if !n_opaques = 0 then [||]
       else by_idx !n_opaques (fun o -> o.oidx) !opaques);
    vars = Array.init !n_vars (Hashtbl.find vars) }

let n_vars t = Array.length t.vars

let var_name t v =
  match t.vars.(v) with
  | Flag idx -> Printf.sprintf "modified(%s)" t.nodes.(idx).path
  | Present idx -> Printf.sprintf "present(%s)" t.nodes.(idx).path
  | Opaque_present oidx -> Printf.sprintf "present(%s)" t.opaques.(oidx).opath

type valuation = bool array

let iter_valuations t f =
  let n = n_vars t in
  if n > Sys.int_size - 2 then invalid_arg "Symheap.iter_valuations: too many variables";
  let v = Array.make n false in
  for bits = 0 to (1 lsl n) - 1 do
    for i = 0 to n - 1 do
      v.(i) <- bits land (1 lsl i) <> 0
    done;
    f v
  done

(* Field fills: >= 10_000, distinct per (node, slot), and disjoint from
   the id range (ids start at 101) and from opaque fills (>= 5_000_000). *)
let field_value ~node_idx ~slot = 10_000 + (node_idx * 1000) + (slot * 7)

let opaque_field_value ~oidx ~slot = 5_000_000 + (oidx * 1000) + (slot * 7)

let materialize ?heap ?(first_id = 101) t (v : valuation) =
  let next_id = ref first_id in
  let alloc klass ~modified =
    let id = !next_id in
    incr next_id;
    match heap with
    | Some h -> Heap.alloc_with_id h klass ~id ~modified
    | None ->
        { Model.info = { Model.id; modified };
          klass;
          ints = Array.make klass.Model.n_ints 0;
          children = Array.make klass.Model.n_children None }
  in
  let root_klass = t.shape.Jspec.Sclass.klass in
  let rec build (n : node) =
    let modified =
      match n.flag_var with None -> false | Some fv -> v.(fv)
    in
    let o = alloc n.shape.Jspec.Sclass.klass ~modified in
    for slot = 0 to Array.length o.Model.ints - 1 do
      o.Model.ints.(slot) <- field_value ~node_idx:n.idx ~slot
    done;
    Array.iteri
      (fun slot s ->
        match s with
        | S_null -> ()
        | S_node cidx -> o.Model.children.(slot) <- Some (build t.nodes.(cidx))
        | S_maybe (cidx, pv) ->
            if v.(pv) then o.Model.children.(slot) <- Some (build t.nodes.(cidx))
        | S_opaque oidx ->
            let op = t.opaques.(oidx) in
            if v.(op.present_var) then begin
              (* An opaque summary materializes as a childless instance of
                 the root's class: unknown subtrees are dirty (so a missing
                 generic fallback shows up in the bytes), clean-opaque ones
                 honour their declaration. *)
              let c = alloc root_klass ~modified:(not op.oclean) in
              for cslot = 0 to Array.length c.Model.ints - 1 do
                c.Model.ints.(cslot) <- opaque_field_value ~oidx ~slot:cslot
              done;
              o.Model.children.(slot) <- Some c
            end)
      n.slots;
    o
  in
  build t.nodes.(0)
