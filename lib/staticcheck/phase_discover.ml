open Minic

type kind = Setup | Round of { cond : Ast.expr }

type phase = {
  p_index : int;
  p_name : string;
  p_kind : kind;
  p_body : Ast.block;
  p_calls : string list;
  p_program : Ast.program;
  p_lifted : string list;
}

let is_round p = match p.p_kind with Round _ -> true | Setup -> false

let drive p ~halted ~exec ~eval ~step =
  if halted () then 0
  else
    match p.p_kind with
    | Setup ->
        exec ();
        step ();
        1
    | Round { cond } ->
        let n = ref 0 in
        let continue = ref true in
        while !continue && not (halted ()) do
          if eval cond = 0 then continue := false else exec ();
          step ();
          incr n
        done;
        !n

(* ---- call collection (for naming) ----------------------------------------- *)

let rec expr_calls acc = function
  | Ast.E_int _ | Ast.E_var _ -> acc
  | Ast.E_index (_, e) | Ast.E_unop (_, e) -> expr_calls acc e
  | Ast.E_binop (_, l, r) -> expr_calls (expr_calls acc l) r
  | Ast.E_call (g, args) ->
      List.fold_left expr_calls (if List.mem g acc then acc else g :: acc) args

let rec stmt_calls acc (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.S_assign (_, e) | Ast.S_expr e -> expr_calls acc e
  | Ast.S_store (_, i, e) -> expr_calls (expr_calls acc i) e
  | Ast.S_if (c, t, e) ->
      List.fold_left stmt_calls
        (List.fold_left stmt_calls (expr_calls acc c) t)
        e
  | Ast.S_while (c, b) -> List.fold_left stmt_calls (expr_calls acc c) b
  | Ast.S_return None -> acc
  | Ast.S_return (Some e) -> expr_calls acc e

let calls_of stmts = List.rev (List.fold_left stmt_calls [] stmts)

(* ---- local lifting --------------------------------------------------------- *)

(* Rename a lifted local of [main] when its name collides with an
   existing global: the lifted copy becomes a global itself, and global
   names must stay unique. *)
let lift_name globals name =
  let taken n = List.exists (fun (g : Ast.var_decl) -> g.v_name = n) globals in
  let rec fresh n = if taken n then fresh (n ^ "'") else n in
  fresh name

let rec subst_expr ren = function
  | Ast.E_int _ as e -> e
  | Ast.E_var x as e -> (
      match List.assoc_opt x ren with
      | Some x' -> Ast.E_var x'
      | None -> e)
  | Ast.E_index (a, i) ->
      let a = match List.assoc_opt a ren with Some a' -> a' | None -> a in
      Ast.E_index (a, subst_expr ren i)
  | Ast.E_unop (op, e) -> Ast.E_unop (op, subst_expr ren e)
  | Ast.E_binop (op, l, r) ->
      Ast.E_binop (op, subst_expr ren l, subst_expr ren r)
  | Ast.E_call (g, args) -> Ast.E_call (g, List.map (subst_expr ren) args)

(* Substitute renamed locals and neutralize [return] statements: a return
   only ends execution early, so replacing it by an effect-evaluation of
   its expression lets the may-analyses see every statement of the round
   — an over-approximation, which is the sound direction — while keeping
   the expression's {e reads} visible (the interference analysis needs
   them: a trailing [return table[0]] really does read [table]). *)
let rec subst_stmt ren (s : Ast.stmt) : Ast.stmt list =
  match s.Ast.node with
  | Ast.S_assign (x, e) ->
      let x = match List.assoc_opt x ren with Some x' -> x' | None -> x in
      [ Ast.stmt (Ast.S_assign (x, subst_expr ren e)) ]
  | Ast.S_store (a, i, e) ->
      let a = match List.assoc_opt a ren with Some a' -> a' | None -> a in
      [ Ast.stmt (Ast.S_store (a, subst_expr ren i, subst_expr ren e)) ]
  | Ast.S_expr e -> [ Ast.stmt (Ast.S_expr (subst_expr ren e)) ]
  | Ast.S_if (c, t, e) ->
      [ Ast.stmt
          (Ast.S_if
             ( subst_expr ren c,
               List.concat_map (subst_stmt ren) t,
               List.concat_map (subst_stmt ren) e )) ]
  | Ast.S_while (c, b) ->
      [ Ast.stmt
          (Ast.S_while (subst_expr ren c, List.concat_map (subst_stmt ren) b)) ]
  | Ast.S_return None -> []
  | Ast.S_return (Some e) -> [ Ast.stmt (Ast.S_expr (subst_expr ren e)) ]

(* The one-round analysis program of a phase: same globals and functions,
   [main]'s locals lifted to (fresh, zero-initialized) globals, and a new
   [main] executing exactly one round. For a [Round] phase the guard is
   evaluated for effect first — calls in a loop guard are effects of the
   round too (and of the final, false, evaluation, which the runtime
   attributes to the same phase). *)
let round_program (program : Ast.program) (main : Ast.func) kind body =
  let ren =
    List.map
      (fun (l : Ast.var_decl) ->
        (l.v_name, lift_name program.Ast.globals l.v_name))
      main.Ast.f_locals
  in
  let lifted =
    List.map
      (fun (l : Ast.var_decl) ->
        { Ast.v_name = List.assoc l.Ast.v_name ren;
          v_typ = l.Ast.v_typ;
          v_init = 0 })
      main.Ast.f_locals
  in
  let body' = List.concat_map (subst_stmt ren) body in
  let body' =
    match kind with
    | Setup -> body'
    | Round { cond } -> Ast.stmt (Ast.S_expr (subst_expr ren cond)) :: body'
  in
  let main' =
    { Ast.f_name = "main";
      f_params = [];
      f_locals = [];
      f_body = body';
      f_ret = Ast.T_void }
  in
  let funcs =
    List.filter (fun (f : Ast.func) -> f.Ast.f_name <> "main") program.Ast.funcs
  in
  let p =
    Ast.number
      { Ast.globals = program.Ast.globals @ lifted; funcs = funcs @ [ main' ] }
  in
  (p, List.map snd ren)

(* ---- discovery ------------------------------------------------------------- *)

let base_name kind calls =
  let prefix = match kind with Setup -> "setup" | Round _ -> "loop" in
  match calls with
  | [] -> prefix
  | _ ->
      let shown, rest =
        if List.length calls <= 3 then (calls, 0)
        else (List.filteri (fun i _ -> i < 3) calls, List.length calls - 3)
      in
      Printf.sprintf "%s:%s%s" prefix
        (String.concat "+" shown)
        (if rest > 0 then Printf.sprintf "+%d" rest else "")

let discover (env : Check.env) =
  let program = env.Check.program in
  let main =
    match Ast.find_func program "main" with
    | Some f -> f
    | None -> invalid_arg "Phase_discover.discover: no main"
  in
  let mk kind body =
    let p_program, p_lifted = round_program program main kind body in
    { p_index = 0;
      p_name = "";
      p_kind = kind;
      p_body = body;
      p_calls = calls_of body;
      p_program;
      p_lifted }
  in
  (* Partition main's top level: every [while] is a round phase (one
     checkpoint per iteration); maximal runs of other statements between
     loops are single-round setup phases. *)
  let rec partition acc group = function
    | [] -> List.rev (close acc group)
    | ({ Ast.node = Ast.S_while (cond, body); _ } : Ast.stmt) :: rest ->
        partition (mk (Round { cond }) body :: close acc group) [] rest
    | s :: rest -> partition acc (s :: group) rest
  and close acc group =
    match group with [] -> acc | g -> mk Setup (List.rev g) :: acc
  in
  let phases = partition [] [] main.Ast.f_body in
  (* An empty main still gets one (empty) setup phase: the driver takes
     its base checkpoint and one empty round — never zero phases. *)
  let phases = if phases = [] then [ mk Setup [] ] else phases in
  (* Index and name the phases; duplicate base names get a #k suffix so
     reports stay unambiguous. *)
  let seen = Hashtbl.create 8 in
  List.mapi
    (fun i p ->
      let base = base_name p.p_kind p.p_calls in
      let n = try Hashtbl.find seen base with Not_found -> 0 in
      Hashtbl.replace seen base (n + 1);
      let name = if n = 0 then base else Printf.sprintf "%s#%d" base (n + 1) in
      { p with p_index = i; p_name = name })
    phases

let pp ppf p =
  Format.fprintf ppf "@[<h>phase %d %-24s %s, %d statement(s)%s@]" p.p_index
    p.p_name
    (match p.p_kind with
    | Setup -> "setup (one round)"
    | Round _ -> "loop (one checkpoint per iteration)")
    (List.length p.p_body)
    (match p.p_calls with
    | [] -> ""
    | c -> ", calls " ^ String.concat ", " c)
