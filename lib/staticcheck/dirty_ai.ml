open Minic.Ast

module Smap = Map.Make (String)

type result = {
  env : Minic.Check.env;
  rounds : int;
  (* transitive may-read and may-write regions, converged *)
  reads : (string, Regions.map) Hashtbl.t;
  writes : (string, Regions.map) Hashtbl.t;
  (* flow-insensitive value approximation per global (elements, for arrays) *)
  gval : Regions.itv array;
}

(* The effects one function body has had so far in this round. *)
type effects = {
  mutable fx_reads : Regions.map;
  mutable fx_writes : Regions.map;
}

(* Plain-join rounds before switching to widening: two precise rounds
   cover the common init -> first-update pattern, widening bounds the
   rest. *)
let default_widen_delay = 3

(* Backstop only; the widening argument makes it unreachable. *)
let max_rounds = 200

let summary tbl f =
  match Hashtbl.find_opt tbl f with Some m -> m | None -> Regions.map_empty

let analyze ?(havoc = []) ?(widen_delay = default_widen_delay)
    (env : Minic.Check.env) =
  let p = env.Minic.Check.program in
  let gid x = Minic.Check.global_id env x in
  let n_globals = Minic.Check.global_count env in
  let extent = Minic.Check.extents env in
  (* An access outside the extent crashes the concrete run, so clamping
     a may-read or may-write region to the global is sound. *)
  let clamp id r =
    let lo, hi = extent.(id) in
    Regions.clamp ~lo ~hi r
  in
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
  let reads : (string, Regions.map) Hashtbl.t = Hashtbl.create 16 in
  let writes : (string, Regions.map) Hashtbl.t = Hashtbl.create 16 in
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
  let read_global fx id region =
    fx.fx_reads <- Regions.map_add id (clamp id region) fx.fx_reads;
    gval.(id)
  in
  let write_global fx id region value =
    fx.fx_writes <- Regions.map_add id (clamp id region) fx.fx_writes;
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
  (* [eval fx f e]: the value interval of [e] in frame [f], joining its
     global reads and the effects of any calls into [fx]. *)
  let rec eval fx f e : Regions.itv =
    match e with
    | E_int n -> Regions.itv_point n
    | E_var x -> (
        match Smap.find_opt x f with
        | Some v -> v
        | None -> (
            match gid x with
            | Some id -> read_global fx id (Regions.point 0)
            | None -> Regions.itv_full))
    | E_index (a, i) ->
        let vi = eval fx f i in
        if Smap.mem a f then Regions.itv_full
        else (
          match gid a with
          | Some id -> read_global fx id (Regions.of_itv vi)
          | None -> Regions.itv_full)
    | E_unop (U_neg, e) -> Regions.itv_neg (eval fx f e)
    | E_unop (U_not, e) -> (
        match truthiness (eval fx f e) with
        | `False -> Regions.itv_point 1
        | `True -> Regions.itv_point 0
        | `Unknown -> bool_itv)
    | E_binop (op, l, r) -> (
        let vl = eval fx f l in
        let vr = eval fx f r in
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
        List.iteri (fun i v -> raise_param g i v) (List.map (eval fx f) args);
        fx.fx_reads <- Regions.map_join fx.fx_reads (summary reads g);
        fx.fx_writes <- Regions.map_join fx.fx_writes (summary writes g);
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
  let refine_var fx x op rhs f =
    match Smap.find_opt x f with
    | None -> Some f (* globals are not flow-refined *)
    | Some vx ->
        let vr = eval fx f rhs in
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
  let rec refine fx cond sense fr =
    match fr with
    | None -> None
    | Some f -> (
        match cond with
        | E_unop (U_not, e) -> refine fx e (not sense) fr
        | E_binop (B_and, l, r) when sense ->
            refine fx r true (refine fx l true fr)
        | E_binop (B_or, l, r) when not sense ->
            refine fx r false (refine fx l false fr)
        | E_binop (op, E_var x, rhs) ->
            refine_var fx x (if sense then op else negate op) rhs f
        | E_binop (op, lhs, E_var x) ->
            refine_var fx x (mirror (if sense then op else negate op)) lhs f
        | E_var x when Smap.mem x f ->
            refine_var fx x (if sense then B_ne else B_eq) (E_int 0) f
        | _ -> fr)
  in
  (* ---- statements ---- *)
  (* [exec_stmt] returns the post-frame and joins the statement's
     effects into [fx]. *)
  let rec exec_block fname fx fr stmts =
    List.fold_left (exec_stmt fname fx) fr stmts
  and exec_stmt fname fx fr (s : stmt) =
    match fr with
    | None -> None
    | Some f -> (
        match s.node with
        | S_assign (x, e) ->
            let v = eval fx f e in
            if Smap.mem x f then Some (Smap.add x v f)
            else begin
              (match gid x with
              | Some id -> write_global fx id (Regions.point 0) v
              | None -> ());
              fr
            end
        | S_store (a, i, e) ->
            let vi = eval fx f i in
            let v = eval fx f e in
            if not (Smap.mem a f) then
              (match gid a with
              | Some id -> write_global fx id (Regions.of_itv vi) v
              | None -> ());
            fr
        | S_expr e ->
            let (_ : Regions.itv) = eval fx f e in
            fr
        | S_return None -> None
        | S_return (Some e) ->
            raise_ret fname (eval fx f e);
            None
        | S_if (c, t, e) -> (
            match truthiness (eval fx f c) with
            | `True -> exec_block fname fx (refine fx c true fr) t
            | `False -> exec_block fname fx (refine fx c false fr) e
            | `Unknown ->
                frame_join
                  (exec_block fname fx (refine fx c true fr) t)
                  (exec_block fname fx (refine fx c false fr) e))
        | S_while (c, b) ->
            let rec fix head n =
              let out = exec_block fname fx (refine fx c true head) b in
              let head' = frame_join head out in
              if frame_leq head' head then head
              else
                fix (if n >= 2 then frame_widen head head' else head') (n + 1)
            in
            let stable = fix fr 0 in
            (match stable with
            | Some f' ->
                (* the guard itself runs once more on exit *)
                let (_ : Regions.itv) = eval fx f' c in
                ()
            | None -> ());
            refine fx c false stable)
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
      let fx =
        { fx_reads = Regions.map_empty; fx_writes = Regions.map_empty }
      in
      ignore
        (exec_block f.f_name fx (Some frame0) f.f_body
          : Regions.itv Smap.t option);
      (* Plain join: accesses are clamped to their global's extent, so
         the summary lattice is finite — no widening needed (and widening
         here would leak +oo bounds past the clamp). *)
      let update tbl effects =
        let old = summary tbl f.f_name in
        let now = Regions.map_join old effects in
        if not (Regions.map_leq now old) then begin
          changed := true;
          Hashtbl.replace tbl f.f_name now
        end
      in
      update reads fx.fx_reads;
      update writes fx.fx_writes
    end
  in
  while !changed && !round_no < max_rounds do
    changed := false;
    incr round_no;
    List.iter analyze_func p.funcs;
    Array.blit gval_pending 0 gval 0 n_globals
  done;
  { env; rounds = !round_no; reads; writes; gval }

let env r = r.env
let rounds r = r.rounds
let func_reads r f = summary r.reads f
let func_writes r f = summary r.writes f
let main_reads r = func_reads r "main"
let main_writes r = func_writes r "main"

let write_region r name =
  match Minic.Check.global_id r.env name with
  | Some id -> Regions.region_of (main_writes r) id
  | None -> Regions.bot

let global_value r name =
  match Minic.Check.global_id r.env name with
  | Some id -> r.gval.(id)
  | None -> Regions.itv_full

(* A global whose value approximation is a single point holds that value
   on every read — the constants (width, npixels, n, ...) that make sweep
   bounds decidable. *)
let rec constant r e =
  match e with
  | E_int n -> Some n
  | E_var x when Minic.Check.global_id r.env x <> None ->
      let v = global_value r x in
      if v.Regions.lo = v.Regions.hi && v.Regions.lo > min_int then
        Some v.Regions.lo
      else None
  | E_unop (U_neg, e) -> Option.map (fun n -> -n) (constant r e)
  | E_binop (op, a, b) -> (
      match (constant r a, constant r b) with
      | Some x, Some y -> (
          match op with
          | B_add -> Some (x + y)
          | B_sub -> Some (x - y)
          | B_mul -> Some (x * y)
          | B_div when y <> 0 -> Some (x / y)
          | B_mod when y <> 0 -> Some (x mod y)
          | _ -> None)
      | _ -> None)
  | _ -> None

let pp_effects r ppf f =
  Format.fprintf ppf "@[<h>reads %a writes %a@]" (Regions.pp_map r.env)
    (func_reads r f) (Regions.pp_map r.env) (func_writes r f)
