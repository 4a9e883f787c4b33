open Ast

exception Check_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Check_error s)) fmt

type env = { program : Ast.program; global_ids : (string * int) list }

let dup_check what names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then fail "duplicate %s %S" what n
      else Hashtbl.add seen n ())
    names

let check p =
  dup_check "global" (List.map (fun g -> g.v_name) p.globals);
  dup_check "function" (List.map (fun f -> f.f_name) p.funcs);
  let globals = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace globals g.v_name g.v_typ) p.globals;
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun f -> Hashtbl.replace funcs f.f_name (List.length f.f_params, f.f_ret))
    p.funcs;
  let check_func f =
    dup_check
      (Printf.sprintf "local/param in %s" f.f_name)
      (f.f_params @ List.map (fun l -> l.v_name) f.f_locals);
    let locals = Hashtbl.create 16 in
    List.iter (fun x -> Hashtbl.replace locals x T_int) f.f_params;
    List.iter (fun l -> Hashtbl.replace locals l.v_name l.v_typ) f.f_locals;
    let typ_of x =
      match Hashtbl.find_opt locals x with
      | Some t -> t
      | None -> (
          match Hashtbl.find_opt globals x with
          | Some t -> t
          | None -> fail "in %s: undefined variable %S" f.f_name x)
    in
    let rec expr = function
      | E_int _ -> ()
      | E_var x -> (
          match typ_of x with
          | T_int -> ()
          | T_array _ -> fail "in %s: array %S used as scalar" f.f_name x
          | T_void -> fail "in %s: void variable %S" f.f_name x)
      | E_index (a, i) -> (
          expr i;
          match typ_of a with
          | T_array _ -> ()
          | T_int | T_void -> fail "in %s: indexing non-array %S" f.f_name a)
      | E_unop (_, e) -> expr e
      | E_binop (_, l, r) ->
          expr l;
          expr r
      | E_call (g, args) -> (
          List.iter expr args;
          match Hashtbl.find_opt funcs g with
          | None -> fail "in %s: call to undefined function %S" f.f_name g
          | Some (arity, _ret) ->
              if List.length args <> arity then
                fail "in %s: %S expects %d arguments, got %d" f.f_name g arity
                  (List.length args))
    in
    let rec stmt s =
      match s.node with
      | S_assign (x, e) -> (
          expr e;
          match typ_of x with
          | T_int -> ()
          | T_array _ | T_void ->
              fail "in %s: assignment to non-scalar %S" f.f_name x)
      | S_store (a, i, e) -> (
          expr i;
          expr e;
          match typ_of a with
          | T_array _ -> ()
          | T_int | T_void -> fail "in %s: store to non-array %S" f.f_name a)
      | S_expr e -> expr e
      | S_if (c, t, el) ->
          expr c;
          List.iter stmt t;
          List.iter stmt el
      | S_while (c, b) ->
          expr c;
          List.iter stmt b
      | S_return None -> ()
      | S_return (Some e) -> expr e
    in
    List.iter stmt f.f_body
  in
  List.iter check_func p.funcs;
  if find_func p "main" = None then fail "no main function";
  { program = p;
    global_ids = List.mapi (fun i g -> (g.v_name, i)) p.globals }

let global_id env x = List.assoc_opt x env.global_ids

let global_count env = List.length env.global_ids

let is_global_array env x =
  List.exists
    (fun g -> g.v_name = x && match g.v_typ with T_array _ -> true | _ -> false)
    env.program.globals

let global_name env id =
  match List.find_opt (fun (_, i) -> i = id) env.global_ids with
  | Some (name, _) -> name
  | None -> Printf.sprintf "g%d" id

let extent_of_typ = function T_array n -> (0, max 0 (n - 1)) | _ -> (0, 0)

let extent env x =
  List.find_opt (fun g -> g.v_name = x) env.program.globals
  |> Option.map (fun g -> extent_of_typ g.v_typ)

let extents env =
  Array.of_list (List.map (fun g -> extent_of_typ g.v_typ) env.program.globals)
