open Minic.Ast

module Smap = Map.Make (String)

type result = {
  env : Minic.Check.env;
  rounds : int;
  (* transitive may-write regions, converged *)
  summaries : (string, Regions.map) Hashtbl.t;
  (* flow-insensitive value approximation per global (elements, for arrays) *)
  gval : Regions.itv array;
}

(* Plain-join rounds before switching to widening: two precise rounds
   cover the common init -> first-update pattern, widening bounds the
   rest. *)
let default_widen_delay = 3

(* Backstop only; the widening argument makes it unreachable. *)
let max_rounds = 200

let extent_of_typ = function
  | T_int | T_void -> (0, 0)
  | T_array n -> (0, n - 1)

let analyze ?(havoc = []) ?(widen_delay = default_widen_delay)
    (env : Minic.Check.env) =
  let p = env.Minic.Check.program in
  let gid x = Minic.Check.global_id env x in
  let n_globals = Minic.Check.global_count env in
  let gtyp = Array.make n_globals T_int in
  List.iter
    (fun g ->
      match gid g.v_name with
      | Some id -> gtyp.(id) <- g.v_typ
      | None -> ())
    p.globals;
  let extent id = extent_of_typ gtyp.(id) in
  (* Arrays start zeroed; scalars at their initializer. A global no
     function ever writes keeps this value forever — the constants that
     make loop bounds decidable. *)
  let gval = Array.make n_globals (Regions.itv_point 0) in
  List.iter
    (fun g ->
      match gid g.v_name with
      | Some id ->
          gval.(id) <-
            (match g.v_typ with
            | T_array _ -> Regions.itv_point 0
            | _ -> Regions.itv_point g.v_init)
      | None -> ())
    p.globals;
  (* Havoced globals model external input: any value, from the start. *)
  List.iter
    (fun x ->
      match gid x with Some id -> gval.(id) <- Regions.itv_full | None -> ())
    havoc;
  let gval_pending = Array.copy gval in
  (* Per-function interprocedural state, all join-monotone. *)
  let called : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let params : (string, Regions.itv array * bool array) Hashtbl.t =
    Hashtbl.create 16
  in
  let rets : (string, Regions.itv) Hashtbl.t = Hashtbl.create 16 in
  let summaries : (string, Regions.map) Hashtbl.t = Hashtbl.create 16 in
  let summary_of f =
    match Hashtbl.find_opt summaries f with
    | Some m -> m
    | None -> Regions.map_empty
  in
  let round_no = ref 0 in
  let changed = ref true in
  let stabilize old now =
    if Regions.itv_leq now old then old
    else begin
      changed := true;
      if !round_no >= widen_delay then
        Regions.itv_widen old (Regions.itv_join old now)
      else Regions.itv_join old now
    end
  in
  let write_global acc id region value =
    let lo, hi = extent id in
    (* A store outside the extent crashes the concrete run, so clamping
       the may-write region to the array is sound. *)
    acc := Regions.map_add id (Regions.clamp ~lo ~hi region) !acc;
    gval_pending.(id) <- stabilize gval_pending.(id) value
  in
  let mark_called f =
    if not (Hashtbl.mem called f) then begin
      Hashtbl.add called f ();
      changed := true
    end
  in
  let raise_param f i v =
    match Hashtbl.find_opt params f with
    | None ->
        let n =
          match find_func p f with
          | Some fn -> List.length fn.f_params
          | None -> i + 1
        in
        let arr = Array.make (max 1 n) (Regions.itv_point 0) in
        let set = Array.make (max 1 n) false in
        arr.(i) <- v;
        set.(i) <- true;
        Hashtbl.add params f (arr, set);
        changed := true
    | Some (arr, set) ->
        if i < Array.length arr then
          if not set.(i) then begin
            set.(i) <- true;
            arr.(i) <- v;
            changed := true
          end
          else arr.(i) <- stabilize arr.(i) v
  in
  let raise_ret f v =
    match Hashtbl.find_opt rets f with
    | None ->
        Hashtbl.replace rets f v;
        changed := true
    | Some old -> Hashtbl.replace rets f (stabilize old v)
  in
  (* ---- frames: one interval per local/param; None = unreachable ---- *)
  let frame_join a b =
    match (a, b) with
    | None, f | f, None -> f
    | Some x, Some y ->
        Some (Smap.union (fun _ i j -> Some (Regions.itv_join i j)) x y)
  in
  let frame_leq a b =
    match (a, b) with
    | None, _ -> true
    | Some _, None -> false
    | Some x, Some y ->
        Smap.for_all
          (fun k i ->
            match Smap.find_opt k y with
            | Some j -> Regions.itv_leq i j
            | None -> false)
          x
  in
  let frame_widen a b =
    match (a, b) with
    | None, f | f, None -> f
    | Some x, Some y ->
        Some
          (Smap.union
             (fun _ i j -> Some (Regions.itv_widen i (Regions.itv_join i j)))
             x y)
  in
  (* ---- expressions ---- *)
  let truthiness (v : Regions.itv) =
    if v.Regions.lo = 0 && v.Regions.hi = 0 then `False
    else if v.Regions.lo > 0 || v.Regions.hi < 0 then `True
    else `Unknown
  in
  let bool_itv = Regions.itv 0 1 in
  (* [eval acc f e]: the value interval of [e] in frame [f], joining the
     write effects of any calls into [acc]. *)
  let rec eval acc f e : Regions.itv =
    match e with
    | E_int n -> Regions.itv_point n
    | E_var x -> (
        match Smap.find_opt x f with
        | Some v -> v
        | None -> (
            match gid x with
            | Some id -> gval.(id)
            | None -> Regions.itv_full))
    | E_index (a, i) ->
        let (_ : Regions.itv) = eval acc f i in
        if Smap.mem a f then Regions.itv_full
        else (
          match gid a with Some id -> gval.(id) | None -> Regions.itv_full)
    | E_unop (U_neg, e) -> Regions.itv_neg (eval acc f e)
    | E_unop (U_not, e) -> (
        match truthiness (eval acc f e) with
        | `False -> Regions.itv_point 1
        | `True -> Regions.itv_point 0
        | `Unknown -> bool_itv)
    | E_binop (op, l, r) -> (
        let vl = eval acc f l in
        let vr = eval acc f r in
        let open Regions in
        match op with
        | B_add -> itv_add vl vr
        | B_sub -> itv_sub vl vr
        | B_mul -> itv_mul vl vr
        | B_div -> itv_div vl vr
        | B_mod -> itv_rem vl vr
        | B_lt ->
            if vl.hi < vr.lo then itv_point 1
            else if vl.lo >= vr.hi then itv_point 0
            else bool_itv
        | B_le ->
            if vl.hi <= vr.lo then itv_point 1
            else if vl.lo > vr.hi then itv_point 0
            else bool_itv
        | B_gt ->
            if vl.lo > vr.hi then itv_point 1
            else if vl.hi <= vr.lo then itv_point 0
            else bool_itv
        | B_ge ->
            if vl.lo >= vr.hi then itv_point 1
            else if vl.hi < vr.lo then itv_point 0
            else bool_itv
        | B_eq ->
            if vl.lo = vl.hi && vr.lo = vr.hi && vl.lo = vr.lo then itv_point 1
            else if itv_meet vl vr = None then itv_point 0
            else bool_itv
        | B_ne ->
            if vl.lo = vl.hi && vr.lo = vr.hi && vl.lo = vr.lo then itv_point 0
            else if itv_meet vl vr = None then itv_point 1
            else bool_itv
        | B_and -> (
            match (truthiness vl, truthiness vr) with
            | `False, _ | _, `False -> itv_point 0
            | `True, `True -> itv_point 1
            | _ -> bool_itv)
        | B_or -> (
            match (truthiness vl, truthiness vr) with
            | `True, _ | _, `True -> itv_point 1
            | `False, `False -> itv_point 0
            | _ -> bool_itv))
    | E_call (g, args) ->
        mark_called g;
        List.iteri (fun i v -> raise_param g i v) (List.map (eval acc f) args);
        acc := Regions.map_join !acc (summary_of g);
        (match Hashtbl.find_opt rets g with
        | Some r -> r
        | None ->
            (* not yet computed this fixpoint; the next round re-reads *)
            Regions.itv_point 0)
  in
  (* ---- condition refinement (locals only) ---- *)
  let negate = function
    | B_lt -> B_ge
    | B_le -> B_gt
    | B_gt -> B_le
    | B_ge -> B_lt
    | B_eq -> B_ne
    | B_ne -> B_eq
    | op -> op
  in
  let mirror = function
    | B_lt -> B_gt
    | B_le -> B_ge
    | B_gt -> B_lt
    | B_ge -> B_le
    | op -> op
  in
  let refine_var acc x op rhs f =
    match Smap.find_opt x f with
    | None -> Some f (* globals are not flow-refined *)
    | Some vx ->
        let vr = eval acc f rhs in
        let open Regions in
        let bound =
          match op with
          | B_lt ->
              Some
                { lo = min_int;
                  hi = (if vr.hi = max_int then max_int else vr.hi - 1) }
          | B_le -> Some { lo = min_int; hi = vr.hi }
          | B_gt ->
              Some
                { lo = (if vr.lo = min_int then min_int else vr.lo + 1);
                  hi = max_int }
          | B_ge -> Some { lo = vr.lo; hi = max_int }
          | B_eq -> Some vr
          | _ -> None
        in
        (match bound with
        | None -> Some f
        | Some b -> (
            match itv_meet vx b with
            | None -> None
            | Some v' -> Some (Smap.add x v' f)))
  in
  let rec refine acc cond sense fr =
    match fr with
    | None -> None
    | Some f -> (
        match cond with
        | E_unop (U_not, e) -> refine acc e (not sense) fr
        | E_binop (B_and, l, r) when sense ->
            refine acc r true (refine acc l true fr)
        | E_binop (B_or, l, r) when not sense ->
            refine acc r false (refine acc l false fr)
        | E_binop (op, E_var x, rhs) ->
            refine_var acc x (if sense then op else negate op) rhs f
        | E_binop (op, lhs, E_var x) ->
            refine_var acc x (mirror (if sense then op else negate op)) lhs f
        | E_var x when Smap.mem x f ->
            refine_var acc x (if sense then B_ne else B_eq) (E_int 0) f
        | _ -> fr)
  in
  (* ---- statements ---- *)
  (* [exec_stmt] returns the post-frame and joins the statement subtree's
     may-writes into [acc] and the returned map. *)
  let rec exec_block fname acc fr stmts =
    List.fold_left
      (fun (fr, w) s ->
        let fr', ws = exec_stmt fname acc fr s in
        (fr', Regions.map_join w ws))
      (fr, Regions.map_empty) stmts
  and exec_stmt fname acc fr (s : stmt) =
    match fr with
    | None -> (None, Regions.map_empty)
    | Some f ->
        let sub = ref Regions.map_empty in
        let fr' =
          match s.node with
          | S_assign (x, e) ->
              let v = eval sub f e in
              if Smap.mem x f then Some (Smap.add x v f)
              else begin
                (match gid x with
                | Some id -> write_global sub id (Regions.point 0) v
                | None -> ());
                fr
              end
          | S_store (a, i, e) ->
              let vi = eval sub f i in
              let v = eval sub f e in
              if not (Smap.mem a f) then
                (match gid a with
                | Some id -> write_global sub id (Regions.of_itv vi) v
                | None -> ());
              fr
          | S_expr e ->
              let (_ : Regions.itv) = eval sub f e in
              fr
          | S_return None -> None
          | S_return (Some e) ->
              raise_ret fname (eval sub f e);
              None
          | S_if (c, t, e) -> (
              let vc = eval sub f c in
              match truthiness vc with
              | `True ->
                  let fr', w = exec_block fname acc (refine sub c true fr) t in
                  sub := Regions.map_join !sub w;
                  fr'
              | `False ->
                  let fr', w = exec_block fname acc (refine sub c false fr) e in
                  sub := Regions.map_join !sub w;
                  fr'
              | `Unknown ->
                  let frt, wt = exec_block fname acc (refine sub c true fr) t in
                  let fre, we = exec_block fname acc (refine sub c false fr) e in
                  sub := Regions.map_join !sub (Regions.map_join wt we);
                  frame_join frt fre)
          | S_while (c, b) ->
              let rec fix head n =
                let out, w = exec_block fname acc (refine sub c true head) b in
                sub := Regions.map_join !sub w;
                let head' = frame_join head out in
                if frame_leq head' head then head
                else fix (if n >= 2 then frame_widen head head' else head') (n + 1)
              in
              let stable = fix fr 0 in
              (match stable with
              | Some f' ->
                  (* the guard itself runs once more on exit *)
                  let (_ : Regions.itv) = eval sub f' c in
                  ()
              | None -> ());
              refine sub c false stable
        in
        acc := Regions.map_join !acc !sub;
        (fr', !sub)
  in
  (* ---- function-level fixpoint ---- *)
  let analyze_func (f : func) =
    if f.f_name = "main" || Hashtbl.mem called f.f_name then begin
      let frame0 =
        let with_params =
          match Hashtbl.find_opt params f.f_name with
          | Some (arr, _) ->
              List.fold_left
                (fun (m, i) x -> (Smap.add x arr.(i) m, i + 1))
                (Smap.empty, 0) f.f_params
              |> fst
          | None ->
              List.fold_left
                (fun m x -> Smap.add x Regions.itv_full m)
                Smap.empty f.f_params
        in
        List.fold_left
          (fun m l ->
            match l.v_typ with
            | T_int -> Smap.add l.v_name (Regions.itv_point l.v_init) m
            | T_array _ | T_void -> Smap.add l.v_name Regions.itv_full m)
          with_params f.f_locals
      in
      let acc = ref Regions.map_empty in
      let (_ : _ * Regions.map) =
        exec_block f.f_name acc (Some frame0) f.f_body
      in
      let old = summary_of f.f_name in
      (* Plain join: stores are clamped to their array's extent, so the
         summary lattice is finite — no widening needed (and widening
         here would leak +oo bounds past the clamp). *)
      let now = Regions.map_join old !acc in
      if not (Regions.map_leq now old) then begin
        changed := true;
        Hashtbl.replace summaries f.f_name now
      end
    end
  in
  while !changed && !round_no < max_rounds do
    changed := false;
    incr round_no;
    List.iter analyze_func p.funcs;
    Array.blit gval_pending 0 gval 0 n_globals
  done;
  { env; rounds = !round_no; summaries; gval }

let env r = r.env
let rounds r = r.rounds

let func_writes r f =
  match Hashtbl.find_opt r.summaries f with
  | Some m -> m
  | None -> Regions.map_empty

let main_writes r = func_writes r "main"

let global_typ r name =
  match
    List.find_opt (fun g -> g.v_name = name) r.env.Minic.Check.program.globals
  with
  | Some g -> g.v_typ
  | None -> T_int

let write_region r name =
  match Minic.Check.global_id r.env name with
  | None -> Regions.bot
  | Some id ->
      let lo, hi = extent_of_typ (global_typ r name) in
      Regions.clamp ~lo ~hi (Regions.region_of (main_writes r) id)

let global_value r name =
  match Minic.Check.global_id r.env name with
  | Some id -> r.gval.(id)
  | None -> Regions.itv_full

let pp_writes r ppf m =
  Regions.pp_map
    ~name:(Effects.global_name r.env)
    ~is_array:(fun gid ->
      Minic.Check.is_global_array r.env (Effects.global_name r.env gid))
    ppf m

let pp ppf r =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf (f : func) ->
         Format.fprintf ppf "@[<h>%-18s writes %a@]" f.f_name (pp_writes r)
           (func_writes r f.f_name)))
    r.env.Minic.Check.program.funcs
