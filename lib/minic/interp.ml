open Ast

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type value = V_int of int ref | V_array of int array

type global_store = {
  gs_get : string -> int;
  gs_set : string -> int -> unit;
  gs_get_cell : string -> int -> int;
  gs_set_cell : string -> int -> int -> unit;
  gs_length : string -> int;
}

type outcome = {
  return_value : int option;
  steps : int;
  globals : (string * int) list;
}

exception Return of int option

let make_store decls =
  let store = Hashtbl.create 16 in
  List.iter
    (fun d ->
      let v =
        match d.v_typ with
        | T_int -> V_int (ref d.v_init)
        | T_array len ->
            if len <= 0 then fail "array %s has non-positive length" d.v_name;
            V_array (Array.make len 0)
        | T_void -> fail "void variable %s" d.v_name
      in
      Hashtbl.replace store d.v_name v)
    decls;
  store

let hashtable_store (p : program) =
  let store = make_store p.globals in
  let scalar x =
    match Hashtbl.find_opt store x with
    | Some (V_int r) -> r
    | Some (V_array _) -> fail "array %s used as scalar" x
    | None -> fail "unbound global %s" x
  in
  let array x =
    match Hashtbl.find_opt store x with
    | Some (V_array a) -> a
    | Some (V_int _) -> fail "scalar %s used as array" x
    | None -> fail "unbound global %s" x
  in
  { gs_get = (fun x -> !(scalar x));
    gs_set = (fun x v -> scalar x := v);
    gs_get_cell = (fun a i -> (array a).(i));
    gs_set_cell = (fun a i v -> (array a).(i) <- v);
    gs_length = (fun a -> Array.length (array a)) }

(* The machine state shared by whole-program runs and phase-driven
   sessions: the program, the (pluggable) global store, and the step
   budget. Locals stay concrete per activation — only globals go through
   the store, which is what lets a checkpointable heap stand in for
   them. *)
type machine = {
  program : program;
  store : global_store;
  max_steps : int;
  mutable steps : int;
}

let budget m =
  m.steps <- m.steps + 1;
  if m.steps > m.max_steps then fail "step budget exhausted (%d)" m.max_steps

(* A variable reference resolved against the enclosing activation:
   locals (and parameters) win over globals, as in C. *)
let lookup_local locals x = Hashtbl.find_opt locals x

let rec call m fname args =
  let f =
    match find_func m.program fname with
    | Some f -> f
    | None -> fail "undefined function %s" fname
  in
  if List.length args <> List.length f.f_params then
    fail "%s: arity mismatch" fname;
  let locals = make_store f.f_locals in
  List.iter2
    (fun name v -> Hashtbl.replace locals name (V_int (ref v)))
    f.f_params args;
  match exec_block m ~fname ~locals f.f_body with
  | () -> None
  | exception Return v -> v

and exec_block m ~fname ~locals b = List.iter (exec_stmt m ~fname ~locals) b

and eval m ~fname ~locals e =
  let eval e = eval m ~fname ~locals e in
  match e with
  | E_int n -> n
  | E_var x -> (
      match lookup_local locals x with
      | Some (V_int r) -> !r
      | Some (V_array _) -> fail "%s: array %s used as scalar" fname x
      | None -> m.store.gs_get x)
  | E_index (a, i) -> (
      let i = eval i in
      match lookup_local locals a with
      | Some (V_array arr) ->
          if i < 0 || i >= Array.length arr then
            fail "%s: %s[%d] out of bounds (length %d)" fname a i
              (Array.length arr);
          arr.(i)
      | Some (V_int _) -> fail "%s: scalar %s used as array" fname a
      | None ->
          let len = m.store.gs_length a in
          if i < 0 || i >= len then
            fail "%s: %s[%d] out of bounds (length %d)" fname a i len;
          m.store.gs_get_cell a i)
  | E_unop (U_neg, e) -> -eval e
  | E_unop (U_not, e) -> if eval e = 0 then 1 else 0
  | E_binop (op, l, r) -> (
      match op with
      | B_and -> if eval l = 0 then 0 else if eval r <> 0 then 1 else 0
      | B_or -> if eval l <> 0 then 1 else if eval r <> 0 then 1 else 0
      | _ ->
          let l = eval l and r = eval r in
          let nz b = if b then 1 else 0 in
          (match op with
          | B_add -> l + r
          | B_sub -> l - r
          | B_mul -> l * r
          | B_div ->
              if r = 0 then fail "%s: division by zero" fname else l / r
          | B_mod ->
              if r = 0 then fail "%s: modulo by zero" fname else l mod r
          | B_lt -> nz (l < r)
          | B_le -> nz (l <= r)
          | B_gt -> nz (l > r)
          | B_ge -> nz (l >= r)
          | B_eq -> nz (l = r)
          | B_ne -> nz (l <> r)
          | B_and | B_or -> assert false))
  | E_call (g, args) -> (
      let args = List.map (fun a -> eval a) args in
      match call m g args with
      | Some v -> v
      | None -> fail "%s: void call to %s used as value" fname g)

and exec_stmt m ~fname ~locals s =
  let eval e = eval m ~fname ~locals e in
  budget m;
  match s.node with
  | S_assign (x, e) -> (
      let v = eval e in
      match lookup_local locals x with
      | Some (V_int r) -> r := v
      | Some (V_array _) -> fail "%s: array %s used as scalar" fname x
      | None -> m.store.gs_set x v)
  | S_store (a, i, e) -> (
      let i = eval i in
      match lookup_local locals a with
      | Some (V_array arr) ->
          if i < 0 || i >= Array.length arr then
            fail "%s: %s[%d] out of bounds (length %d)" fname a i
              (Array.length arr);
          arr.(i) <- eval e
      | Some (V_int _) -> fail "%s: scalar %s used as array" fname a
      | None ->
          let len = m.store.gs_length a in
          if i < 0 || i >= len then
            fail "%s: %s[%d] out of bounds (length %d)" fname a i len;
          m.store.gs_set_cell a i (eval e))
  | S_expr e -> (
      match e with
      | E_call (g, args) ->
          ignore (call m g (List.map (fun a -> eval a) args))
      | _ -> ignore (eval e))
  | S_if (c, t, e) ->
      if eval c <> 0 then exec_block m ~fname ~locals t
      else exec_block m ~fname ~locals e
  | S_while (c, b) ->
      (* Charge the budget per loop iteration, not just once for the
         while statement itself — an empty loop body must still hit
         the step limit. *)
      while eval c <> 0 do
        budget m;
        exec_block m ~fname ~locals b
      done
  | S_return None -> raise (Return None)
  | S_return (Some e) -> raise (Return (Some (eval e)))

let final_globals (p : program) store =
  List.filter_map
    (fun d ->
      match d.v_typ with
      | T_int -> Some (d.v_name, store.gs_get d.v_name)
      | _ -> None)
    p.globals

let exec ?(max_steps = 10_000_000) (p : program) fname args =
  let env = Check.check p in
  ignore env;
  let m = { program = p; store = hashtable_store p; max_steps; steps = 0 } in
  let return_value = call m fname args in
  { return_value; steps = m.steps; globals = final_globals p m.store }

let run ?max_steps p = exec ?max_steps p "main" []

module Session = struct
  type t = { m : machine; main_locals : (string, value) Hashtbl.t }

  exception Halted of int option

  let start ?(max_steps = 10_000_000) ?store (p : program) =
    let env = Check.check p in
    ignore env;
    let store = match store with Some s -> s | None -> hashtable_store p in
    let main =
      match find_func p "main" with
      | Some f -> f
      | None -> fail "undefined function main"
    in
    if main.f_params <> [] then fail "main: takes no arguments";
    { m = { program = p; store; max_steps; steps = 0 };
      main_locals = make_store main.f_locals }

  let exec_block t b =
    match exec_block t.m ~fname:"main" ~locals:t.main_locals b with
    | () -> ()
    | exception Return v -> raise (Halted v)

  let eval t e = eval t.m ~fname:"main" ~locals:t.main_locals e

  let steps t = t.m.steps

  let final_globals t = final_globals t.m.program t.m.store

  let locals t =
    Hashtbl.fold
      (fun name v acc ->
        match v with V_int r -> (name, !r) :: acc | V_array _ -> acc)
      t.main_locals []
    |> List.sort compare

  let set_local t name v =
    match Hashtbl.find_opt t.main_locals name with
    | Some (V_int r) -> r := v
    | Some (V_array _) -> fail "array local %s set as scalar" name
    | None -> fail "unbound local %s" name
end
