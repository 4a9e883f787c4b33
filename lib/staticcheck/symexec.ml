open Jspec.Cklang

type sint =
  | I_const of int
  | I_id of place
  | I_kid of place
  | I_nints of place
  | I_nchildren of place
  | I_field of place * sint
  | I_modified of place
  | I_is_null of place
  | I_not of sint
  | I_cond of sint * sint * sint

and place = P_node of int | P_opaque of int * sint list

type event = E_write of sint | E_generic of place

type trace = { events : event list; flags : bool array }

type outcome = Trace of trace | Crashed of string

exception Unverifiable of string

(* A definite runtime error under the current valuation: every concrete
   heap materializing it crashes here, which is itself a divergence from
   the generic algorithm (total on conforming heaps). Caught by [run]. *)
exception Crash of string

let unverifiable fmt = Format.kasprintf (fun s -> raise (Unverifiable s)) fmt

let crash fmt = Format.kasprintf (fun s -> raise (Crash s)) fmt

let rec pp_place ppf = function
  | P_node idx -> Format.fprintf ppf "n%d" idx
  | P_opaque (oidx, sub) ->
      Format.fprintf ppf "u%d" oidx;
      List.iter (fun s -> Format.fprintf ppf ".[%a]" pp_sint s) sub

and pp_sint ppf = function
  | I_const n -> Format.pp_print_int ppf n
  | I_id p -> Format.fprintf ppf "id(%a)" pp_place p
  | I_kid p -> Format.fprintf ppf "kid(%a)" pp_place p
  | I_nints p -> Format.fprintf ppf "nints(%a)" pp_place p
  | I_nchildren p -> Format.fprintf ppf "nchildren(%a)" pp_place p
  | I_field (p, i) -> Format.fprintf ppf "%a.ints[%a]" pp_place p pp_sint i
  | I_modified p -> Format.fprintf ppf "modified(%a)" pp_place p
  | I_is_null p -> Format.fprintf ppf "is_null(%a)" pp_place p
  | I_not s -> Format.fprintf ppf "!(%a)" pp_sint s
  | I_cond (c, a, b) ->
      Format.fprintf ppf "(%a ? %a : %a)" pp_sint c pp_sint a pp_sint b

let pp_event ppf = function
  | E_write s -> Format.fprintf ppf "write(%a)" pp_sint s
  | E_generic p -> Format.fprintf ppf "generic(%a)" pp_place p

type value = V_int of sint | V_obj of place | V_null

type state = {
  sym : Symheap.t;
  valuation : Symheap.valuation;
  program : Jspec.Cklang.program;
  flags : bool array;  (* current modified flag per node *)
  mutable events : event list;  (* reversed *)
  mutable fuel : int;
}

let emit st e = st.events <- e :: st.events

let opaque_clean st oidx = st.sym.Symheap.opaques.(oidx).Symheap.oclean

let klass_of st idx =
  st.sym.Symheap.nodes.(idx).Symheap.shape.Jspec.Sclass.klass

let bool_int b = I_const (if b then 1 else 0)

let rec eval st env (e : expr) : value =
  match e with
  | Const n -> V_int (I_const n)
  | Var v -> (
      match List.assoc_opt v env with
      | Some a -> a
      | None -> crash "unbound variable v%d" v)
  | Int_field (o, i) -> (
      let p = eval_obj st env o in
      let idx = eval_int st env i in
      match (p, idx) with
      | P_node n, I_const k ->
          let klass = klass_of st n in
          if k < 0 || k >= klass.Ickpt_runtime.Model.n_ints then
            crash "int field %d out of range for %s" k
              klass.Ickpt_runtime.Model.kname;
          V_int (I_field (p, idx))
      | P_node _, _ ->
          (* A symbolic index into a known layout cannot arise from the
             generic program (loops over known nodes unroll), only from
             code we cannot model. *)
          unverifiable "symbolic int-field index on a shape-known node"
      | P_opaque _, _ -> V_int (I_field (p, idx)))
  | Child (o, i) -> (
      let p = eval_obj st env o in
      let idx = eval_int st env i in
      match (p, idx) with
      | P_node n, I_const k -> (
          let node = st.sym.Symheap.nodes.(n) in
          if k < 0 || k >= Array.length node.Symheap.slots then
            crash "child %d out of range for %s" k node.Symheap.path;
          match node.Symheap.slots.(k) with
          | Symheap.S_null -> V_null
          | Symheap.S_node c -> V_obj (P_node c)
          | Symheap.S_maybe (c, pv) ->
              if st.valuation.(pv) then V_obj (P_node c) else V_null
          | Symheap.S_opaque oidx ->
              let op = st.sym.Symheap.opaques.(oidx) in
              if st.valuation.(op.Symheap.present_var) then
                V_obj (P_opaque (oidx, []))
              else V_null)
      | P_node _, _ -> unverifiable "symbolic child index on a shape-known node"
      | P_opaque (oidx, sub), _ -> V_obj (P_opaque (oidx, sub @ [ idx ])))
  | Id_of o -> V_int (I_id (eval_obj st env o))
  | Kid_of o -> (
      match eval_obj st env o with
      | P_node n -> V_int (I_const (klass_of st n).Ickpt_runtime.Model.kid)
      | P_opaque _ as p -> V_int (I_kid p))
  | Modified o -> (
      match eval_obj st env o with
      | P_node n -> V_int (bool_int st.flags.(n))
      | P_opaque (oidx, _) as p ->
          if opaque_clean st oidx then V_int (I_const 0)
          else V_int (I_modified p))
  | Is_null o -> (
      match eval st env o with
      | V_null -> V_int (I_const 1)
      | V_obj (P_node _) | V_obj (P_opaque (_, [])) -> V_int (I_const 0)
      | V_obj (P_opaque (_, _ :: _) as p) -> V_int (I_is_null p)
      | V_int _ -> crash "Is_null on int")
  | Not e' -> (
      match eval_int st env e' with
      | I_const n -> V_int (bool_int (n = 0))
      | s -> V_int (I_not s))
  | N_ints o -> (
      match eval_obj st env o with
      | P_node n -> V_int (I_const (klass_of st n).Ickpt_runtime.Model.n_ints)
      | P_opaque _ as p -> V_int (I_nints p))
  | N_children o -> (
      match eval_obj st env o with
      | P_node n ->
          V_int (I_const (klass_of st n).Ickpt_runtime.Model.n_children)
      | P_opaque _ as p -> V_int (I_nchildren p))
  | Cond (c, a, b) -> (
      match eval_int st env c with
      | I_const 0 -> eval st env b
      | I_const _ -> eval st env a
      | c' -> V_int (I_cond (c', eval_int st env a, eval_int st env b)))

and eval_int st env e =
  match eval st env e with
  | V_int s -> s
  | V_obj _ -> crash "expected int, got object"
  | V_null -> crash "expected int, got null"

and eval_obj st env e =
  match eval st env e with
  | V_obj p -> p
  | V_null -> crash "null dereference"
  | V_int _ -> crash "expected object, got int"

let rec exec st env stmts = List.iter (exec_stmt st env) stmts

and exec_stmt st env s =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then unverifiable "fuel exhausted (runaway residual code)";
  match s with
  | Write e -> emit st (E_write (eval_int st env e))
  | Reset_modified e -> (
      match eval_obj st env e with
      | P_node n -> st.flags.(n) <- false
      | P_opaque (oidx, _) ->
          (* Clean subtrees have every flag false already, so the reset is
             a semantic no-op; on unknown subtrees the effect cannot be
             modeled. *)
          if not (opaque_clean st oidx) then
            unverifiable "Reset_modified on an unknown opaque subtree")
  | If (c, t, f) -> (
      match eval_int st env c with
      | I_const 0 -> exec st env f
      | I_const _ -> exec st env t
      | s -> unverifiable "branch on an opaque condition: %a" pp_sint s)
  | Let (v, e, body) -> exec st ((v, eval st env e) :: env) body
  | For (v, lo, hi, body) -> (
      match (eval_int st env lo, eval_int st env hi) with
      | I_const lo, I_const hi ->
          for k = lo to hi - 1 do
            exec st ((v, V_int (I_const k)) :: env) body
          done
      | _ -> unverifiable "loop with opaque bounds")
  | Invoke_virtual (m, e) -> (
      match eval st env e with
      | V_null -> crash "virtual %a on null" pp_meth m
      | v -> invoke st m v)
  | Call (m, e) -> (
      match eval st env e with
      | V_null -> ()  (* static driver calls are null-tolerant, cf. Interp *)
      | v -> invoke st m v)
  | Call_generic e -> (
      match eval st env e with
      | V_null -> ()
      | V_int _ -> crash "generic call on int"
      | V_obj (P_node _ as p) ->
          (* Generic fallback on a shape-known node: expand the generic
             program itself, threading the current flag state through. *)
          exec st [ (0, V_obj p) ] st.program.checkpoint
      | V_obj (P_opaque (oidx, _) as p) ->
          if not (opaque_clean st oidx) then emit st (E_generic p))

(* Virtual or static dispatch on a symbolic receiver. On shape-known nodes
   the receiver's class is static, so dispatch resolves to the program's
   method body, inlined with a fresh frame — exactly what Pe does at
   specialization time, here replayed at verification time. *)
and invoke st m v =
  match v with
  | V_int _ -> crash "method call on int"
  | V_null -> crash "method call on null"
  | V_obj (P_node _ as p) ->
      exec st [ (0, V_obj p) ] (method_body st.program m)
  | V_obj (P_opaque (oidx, _) as p) ->
      if opaque_clean st oidx then
        (* Checkpointing or folding an all-clean subtree emits nothing and
           changes nothing; recording its layout-unknown fields cannot be
           modeled (and the generic algorithm never does it: record runs
           only under a true modified test). *)
        (match m with
        | M_checkpoint | M_fold -> ()
        | M_record -> unverifiable "record on a clean-opaque subtree")
      else (
        match m with
        | M_checkpoint -> emit st (E_generic p)
        | M_record | M_fold ->
            unverifiable "%a on an unknown opaque subtree" pp_meth m)

let initial_flags sym (valuation : Symheap.valuation) =
  Array.map
    (fun (n : Symheap.node) ->
      match n.Symheap.flag_var with
      | Some fv -> valuation.(fv)
      | None -> false)
    sym.Symheap.nodes

let run ?(program = Jspec.Generic_method.program) ?(fuel = 1_000_000) sym
    valuation stmts =
  let st =
    { sym;
      valuation;
      program;
      flags = initial_flags sym valuation;
      events = [];
      fuel }
  in
  match exec st [ (0, V_obj (P_node 0)) ] stmts with
  | () -> Trace { events = List.rev st.events; flags = st.flags }
  | exception Crash msg -> Crashed msg

let generic_trace ?(program = Jspec.Generic_method.program) sym valuation =
  run ~program sym valuation program.checkpoint
