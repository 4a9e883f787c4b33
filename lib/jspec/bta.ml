type bt = Static | Dynamic

type node = {
  shape : Sclass.shape;
  test_bt : bt;
  recorded : bool;
  traversed : bool;
  children : decision array;
}

and decision =
  | D_skip
  | D_inline of node
  | D_test_inline of node
  | D_generic

let rec analyze (s : Sclass.shape) : node =
  let children =
    Array.map
      (function
        | Sclass.Null_child | Sclass.Clean_opaque -> D_skip
        | Sclass.Exact c ->
            if Sclass.all_clean c then D_skip else D_inline (analyze c)
        | Sclass.Nullable c ->
            if Sclass.all_clean c then D_skip else D_test_inline (analyze c)
        | Sclass.Unknown -> D_generic)
      s.Sclass.children
  in
  let recorded = s.Sclass.status = Sclass.Tracked in
  let traversed =
    recorded
    || Array.exists
         (function D_skip -> false | D_inline _ | D_test_inline _ | D_generic -> true)
         children
  in
  { shape = s;
    test_bt = (if recorded then Dynamic else Static);
    recorded;
    traversed;
    children }

let rec fold_nodes f acc node =
  let acc = f acc node in
  Array.fold_left
    (fun acc -> function
      | D_skip | D_generic -> acc
      | D_inline n | D_test_inline n -> fold_nodes f acc n)
    acc node.children

let static_test_count node =
  fold_nodes (fun acc n -> if n.test_bt = Static then acc + 1 else acc) 0 node

let dynamic_test_count node =
  fold_nodes (fun acc n -> if n.test_bt = Dynamic then acc + 1 else acc) 0 node

let pp_bt ppf = function
  | Static -> Format.pp_print_string ppf "S"
  | Dynamic -> Format.pp_print_string ppf "D"

let rec pp ppf node =
  Format.fprintf ppf "@[<v 2>%s test:%a%s%s"
    node.shape.Sclass.klass.Ickpt_runtime.Model.kname pp_bt node.test_bt
    (if node.recorded then " record" else "")
    (if node.traversed then "" else " (subtree eliminated)");
  Array.iteri
    (fun i d ->
      match d with
      | D_skip -> ()
      | D_inline n -> Format.fprintf ppf "@,%d: %a" i pp n
      | D_test_inline n -> Format.fprintf ppf "@,%d?: %a" i pp n
      | D_generic -> Format.fprintf ppf "@,%d: <generic fallback>" i)
    node.children;
  Format.fprintf ppf "@]"

type action = Reduced | Selected | Unrolled | Resolved | Fallback | Residual

let pp_action ppf a =
  Format.pp_print_string ppf
    (match a with
    | Reduced -> "S:reduced"
    | Selected -> "S:branch-selected"
    | Unrolled -> "S:unrolled"
    | Resolved -> "S:inlined"
    | Fallback -> "D:generic-fallback"
    | Residual -> "D:residual")

(* Binding-time classification of an expression for a method body whose
   receiver (v0) has the given shape. This mirrors the partial evaluator's
   abstract values, reduced to the two-level view; loop variables (any
   bound variable other than v0) are treated as static, matching the PE's
   unrolling of statically-bounded loops. *)
type aval = V_static | V_dynamic | V_obj of Sclass.shape option * bool
(* V_obj (shape, definitely_present): None = unknown shape *)

let rec eval_bt shape (e : Cklang.expr) : aval =
  let open Cklang in
  match e with
  | Const _ -> V_static
  | Var 0 -> V_obj (Some shape, true)
  | Var _ -> V_static (* loop counters and let-bound ints *)
  | Kid_of e' | N_ints e' | N_children e' -> (
      match eval_bt shape e' with
      | V_obj (Some _, _) -> V_static
      | _ -> V_dynamic)
  | Modified e' -> (
      match eval_bt shape e' with
      | V_obj (Some s, _) when s.Sclass.status = Sclass.Clean -> V_static
      | _ -> V_dynamic)
  | Id_of _ | Int_field _ -> V_dynamic
  | Child (o, i) -> (
      match (eval_bt shape o, i) with
      | V_obj (Some s, _), Const j
        when j >= 0 && j < Array.length s.Sclass.children -> (
          match s.Sclass.children.(j) with
          | Sclass.Null_child -> V_static (* statically null *)
          | Sclass.Exact c -> V_obj (Some c, true)
          | Sclass.Nullable c -> V_obj (Some c, false)
          | Sclass.Unknown -> V_obj (None, false)
          | Sclass.Clean_opaque -> V_obj (None, false))
      | _ -> V_obj (None, false))
  | Is_null e' -> (
      match eval_bt shape e' with
      | V_obj (_, true) -> V_static
      | V_static -> V_static (* null child: statically known *)
      | _ -> V_dynamic)
  | Not e' -> eval_bt shape e'
  | Cond (c, a, b) -> (
      match (eval_bt shape c, eval_bt shape a, eval_bt shape b) with
      | V_static, V_static, V_static -> V_static
      | _ -> V_dynamic)

let classify shape (s : Cklang.stmt) : action =
  let open Cklang in
  match s with
  | Write _ | Reset_modified _ | Call_generic _ -> Residual
  | If (c, _, _) -> (
      match eval_bt shape c with
      | V_static ->
          (* Which way does a static test go? The only static tests in the
             generic method are Modified on clean receivers (false) and
             null tests; either way a branch is chosen — when the chosen
             branch is empty the whole statement reduces. *)
          if c = Modified (Var 0) && shape.Sclass.status = Sclass.Clean then
            Reduced
          else Selected
      | _ -> Residual)
  | For (_, lo, hi, _) -> (
      match (eval_bt shape lo, eval_bt shape hi) with
      | V_static, V_static -> Unrolled
      | _ -> Residual)
  | Let (_, _, _) -> Residual
  | Invoke_virtual (_, e) | Call (_, e) -> (
      match eval_bt shape e with
      | V_obj (Some s, true) ->
          if Sclass.all_clean s then Reduced else Resolved
      | V_obj (_, _) -> Fallback
      | V_static -> Reduced (* call on statically-null child *)
      | V_dynamic -> Fallback)

let annotate_method ?(program = Generic_method.program) shape meth =
  List.map (fun s -> (s, classify shape s)) (Cklang.method_body program meth)

let pp_two_level ppf anns =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (s, a) ->
      Format.fprintf ppf "[%-19s] %a@,"
        (Format.asprintf "%a" pp_action a)
        Cklang.pp_stmt s)
    anns;
  Format.fprintf ppf "@]"
