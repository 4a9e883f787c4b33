open Minic.Ast

type t = {
  l_env : Minic.Check.env;
  l_uer : (string, Regions.map) Hashtbl.t;
  l_mw : (string, Regions.map) Hashtbl.t;
  l_boundaries : (int * Regions.map) list;
  l_rounds : int;
}

(* Backstop for the backward loop fixpoints; the lattice (interval sets
   clamped to each array's extent) is finite, so plain iteration
   terminates — the cap only bounds pathological chains before the
   widening fallback kicks in. *)
let max_fix = 200

let analyze ?dirty (env : Minic.Check.env) (phases : Phase_discover.phase list)
    =
  let p = env.Minic.Check.program in
  let dirty =
    match dirty with Some d -> d | None -> Dirty_ai.analyze env
  in
  let gid x = Minic.Check.global_id env x in
  let extent = Minic.Check.extents env in
  let clamp id r =
    let lo, hi = extent.(id) in
    Regions.clamp ~lo ~hi r
  in
  (* Remove [cut] from the binding for [id]: the under-approximate kill
     of backward liveness (complement within the extent, then meet). *)
  let kill_region m id cut =
    let lo, hi = extent.(id) in
    let r =
      Regions.meet (Regions.region_of m id)
        (Regions.complement_in ~lo ~hi cut)
    in
    if Regions.is_bot r then Regions.Gid_map.remove id m
    else Regions.Gid_map.add id r m
  in
  (* ---- function summaries ------------------------------------------- *)
  let uer_tbl : (string, Regions.map) Hashtbl.t = Hashtbl.create 16 in
  let mw_tbl : (string, Regions.map) Hashtbl.t = Hashtbl.create 16 in
  let uer_of f =
    match Hashtbl.find_opt uer_tbl f with
    | Some m -> m
    | None -> Regions.map_empty
  in
  let mw_of f =
    match Hashtbl.find_opt mw_tbl f with
    | Some m -> m
    | None -> Regions.map_empty
  in
  (* The global cells an expression may read: every global occurrence,
     constant indices as points, computed indices as the whole extent,
     plus the upward-exposed reads of any called function. Locals read
     nothing checkpointable. *)
  let rec reads ~is_local acc e =
    match e with
    | E_int _ -> acc
    | E_var x -> (
        if is_local x then acc
        else
          match gid x with
          | Some id -> Regions.map_add id (Regions.point 0) acc
          | None -> acc)
    | E_index (a, i) ->
        let acc = reads ~is_local acc i in
        if is_local a then acc
        else (
          match gid a with
          | Some id ->
              let r =
                match i with
                | E_int n -> Regions.point n
                | _ -> Regions.top
              in
              Regions.map_add id (clamp id r) acc
          | None -> acc)
    | E_unop (_, e) -> reads ~is_local acc e
    | E_binop (_, l, r) -> reads ~is_local (reads ~is_local acc l) r
    | E_call (g, args) ->
        let acc = List.fold_left (reads ~is_local) acc args in
        Regions.map_join acc (uer_of g)
  in
  (* ---- sweep recognition -------------------------------------------- *)
  (* [x = lo; while (x < hi) { ... a[x] = e; ...; x = x + 1 }] with
     constant, loop-invariant bounds and no other write to [x] or early
     return in the body: each unconditional top-level store [a[x] = e]
     must-writes [a[lo..hi-1]] when the loop exits — the range kill that
     makes per-cell stores in commit-style loops visible to the must
     analysis. *)
  let rec assigns_var x stmts =
    List.exists
      (fun s ->
        match s.node with
        | S_assign (y, _) -> y = x
        | S_if (_, t, e) -> assigns_var x t || assigns_var x e
        | S_while (_, b) -> assigns_var x b
        | _ -> false)
      stmts
  in
  let rec has_return stmts =
    List.exists
      (fun s ->
        match s.node with
        | S_return _ -> true
        | S_if (_, t, e) -> has_return t || has_return e
        | S_while (_, b) -> has_return b
        | _ -> false)
      stmts
  in
  let sweep_of ~is_local s1 s2 =
    match (s1.node, s2.node) with
    | ( S_assign (x, elo),
        S_while (E_binop ((B_lt | B_le) as op, E_var x', ehi), body) )
      when x = x' && is_local x -> (
        match List.rev body with
        | { node = S_assign (x'', incr); _ } :: rev_front
          when x'' = x
               && (match incr with
                  | E_binop (B_add, E_var y, E_int 1)
                  | E_binop (B_add, E_int 1, E_var y) ->
                      y = x
                  | _ -> false)
               && (not (assigns_var x (List.rev rev_front)))
               && not (has_return body) -> (
            match
              (Dirty_ai.constant dirty elo, Dirty_ai.constant dirty ehi)
            with
            | Some lo, Some hi_raw ->
                let hi = if op = B_lt then hi_raw - 1 else hi_raw in
                if lo > hi then None
                else
                  let stores =
                    List.filter_map
                      (fun s ->
                        match s.node with
                        | S_store (a, E_var ix, _)
                          when ix = x && not (is_local a) ->
                            gid a
                        | _ -> None)
                      (List.rev rev_front)
                  in
                  Some (lo, hi, stores, body)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  (* ---- UER: upward-exposed reads (over-approximate), computed by a
     forward walk that under-approximates the already-written set ---- *)
  let rec uer_walk ~is_local ~acc killed stmts =
    match stmts with
    | [] -> killed
    | s1 :: (s2 :: rest as tl) -> (
        match sweep_of ~is_local s1 s2 with
        | Some (lo, hi, stores, body) ->
            (* init + guard + body reads first (against the entry killed
               set: iteration 1 reads before the sweep completes), then
               commit the range kill. *)
            let gen e =
              acc :=
                Regions.map_join !acc
                  (map_diff (reads ~is_local Regions.map_empty e) killed)
            in
            gen (match s1.node with S_assign (_, e) -> e | _ -> E_int 0);
            gen
              (match s2.node with S_while (c, _) -> c | _ -> E_int 0);
            let (_ : Regions.map) =
              uer_walk ~is_local ~acc killed body
            in
            let killed =
              List.fold_left
                (fun killed id ->
                  Regions.Gid_map.add id
                    (Regions.join
                       (Regions.region_of killed id)
                       (clamp id (Regions.interval lo hi)))
                    killed)
                killed stores
            in
            uer_walk ~is_local ~acc killed rest
        | None ->
            let killed = uer_stmt ~is_local ~acc killed s1 in
            if
              match s1.node with S_return _ -> true | _ -> false
            then killed
            else uer_walk ~is_local ~acc killed tl)
    | [ s ] -> uer_stmt ~is_local ~acc killed s
  and map_diff r killed =
    Regions.Gid_map.fold
      (fun id reg acc ->
        let lo, hi = extent.(id) in
        let exposed =
          Regions.meet (clamp id reg)
            (Regions.complement_in ~lo ~hi (Regions.region_of killed id))
        in
        if Regions.is_bot exposed then acc
        else Regions.map_add id exposed acc)
      r Regions.map_empty
  and uer_stmt ~is_local ~acc killed s =
    let gen e =
      acc :=
        Regions.map_join !acc
          (map_diff (reads ~is_local Regions.map_empty e) killed)
    in
    match s.node with
    | S_assign (x, e) -> (
        gen e;
        let killed =
          match e with
          | E_call (g, _) -> Regions.map_join killed (mw_of g)
          | _ -> killed
        in
        if is_local x then killed
        else
          match gid x with
          | Some id -> Regions.map_add id (Regions.point 0) killed
          | None -> killed)
    | S_store (a, i, e) -> (
        gen i;
        gen e;
        match (i, gid a) with
        | E_int n, Some id when not (is_local a) ->
            Regions.map_add id (clamp id (Regions.point n)) killed
        | _ -> killed)
    | S_expr e -> (
        gen e;
        match e with
        | E_call (g, _) -> Regions.map_join killed (mw_of g)
        | _ -> killed)
    | S_return None -> killed
    | S_return (Some e) ->
        gen e;
        killed
    | S_if (c, t, e) ->
        gen c;
        (* Branch reads are generated against branch-local kill state;
           neither branch's kills survive the join (a must-set would need
           the intersection — dropping both is the sound under-approx). *)
        let (_ : Regions.map) = uer_walk ~is_local ~acc killed t in
        let (_ : Regions.map) = uer_walk ~is_local ~acc killed e in
        killed
    | S_while (c, b) ->
        gen c;
        (* Non-sweep loop: may run zero times, so its kills don't
           commit; its reads are exposed against the entry kill set. *)
        let (_ : Regions.map) = uer_walk ~is_local ~acc killed b in
        killed
  in
  (* ---- MW: must-write (under-approximate) --------------------------- *)
  let rec mw_walk ~is_local acc stmts =
    match stmts with
    | [] -> acc
    | s1 :: (s2 :: rest as tl) -> (
        match sweep_of ~is_local s1 s2 with
        | Some (lo, hi, stores, _body) ->
            let acc =
              List.fold_left
                (fun acc id ->
                  Regions.map_add id (clamp id (Regions.interval lo hi)) acc)
                acc stores
            in
            mw_walk ~is_local acc rest
        | None -> (
            match s1.node with
            | S_return _ -> mw_stmt ~is_local acc s1
            | _ -> mw_walk ~is_local (mw_stmt ~is_local acc s1) tl))
    | [ s ] -> mw_stmt ~is_local acc s
  and mw_stmt ~is_local acc s =
    match s.node with
    | S_assign (x, e) -> (
        let acc =
          match e with
          | E_call (g, _) -> Regions.map_join acc (mw_of g)
          | _ -> acc
        in
        if is_local x then acc
        else
          match gid x with
          | Some id -> Regions.map_add id (Regions.point 0) acc
          | None -> acc)
    | S_store (a, i, _) -> (
        match (i, gid a) with
        | E_int n, Some id when not (is_local a) ->
            Regions.map_add id (clamp id (Regions.point n)) acc
        | _ -> acc)
    | S_expr (E_call (g, _)) -> Regions.map_join acc (mw_of g)
    | S_expr _ | S_return _ -> acc
    (* Branches and non-sweep loops may not execute: no must-writes. *)
    | S_if _ | S_while _ -> acc
  in
  (* ---- summary fixpoint --------------------------------------------- *)
  let locals_of (f : func) =
    let tbl = Hashtbl.create 8 in
    List.iter (fun x -> Hashtbl.replace tbl x ()) f.f_params;
    List.iter (fun l -> Hashtbl.replace tbl l.v_name ()) f.f_locals;
    fun x -> Hashtbl.mem tbl x
  in
  let func_locals =
    List.map (fun (f : func) -> (f.f_name, locals_of f)) p.funcs
  in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed && !rounds < max_fix do
    changed := false;
    incr rounds;
    List.iter
      (fun (f : func) ->
        let is_local = List.assoc f.f_name func_locals in
        let acc = ref Regions.map_empty in
        let (_ : Regions.map) =
          uer_walk ~is_local ~acc Regions.map_empty f.f_body
        in
        let uer = Regions.map_join (uer_of f.f_name) !acc in
        if not (Regions.map_leq uer (uer_of f.f_name)) then begin
          changed := true;
          Hashtbl.replace uer_tbl f.f_name uer
        end;
        let mw = mw_walk ~is_local Regions.map_empty f.f_body in
        (* MW grows monotonically from bot as callee summaries fill in;
           joining keeps each round's result inductively justified. *)
        let mw = Regions.map_join (mw_of f.f_name) mw in
        if not (Regions.map_leq mw (mw_of f.f_name)) then begin
          changed := true;
          Hashtbl.replace mw_tbl f.f_name mw
        end)
      p.funcs
  done;
  (* ---- backward liveness over main ---------------------------------- *)
  let main_is_local =
    match List.assoc_opt "main" func_locals with
    | Some f -> f
    | None -> fun _ -> false
  in
  let is_local = main_is_local in
  let reads_map e = reads ~is_local Regions.map_empty e in
  let map_diff_all l killed =
    Regions.Gid_map.fold (fun id cut l -> kill_region l id cut) killed l
  in
  let apply_call l g args =
    let l = map_diff_all l (mw_of g) in
    let l = Regions.map_join l (uer_of g) in
    List.fold_left (fun l a -> Regions.map_join l (reads_map a)) l args
  in
  let rec bwd_block stmts l = List.fold_right bwd_stmt stmts l
  and bwd_stmt s l =
    match s.node with
    | S_assign (x, e) -> (
        let l =
          if is_local x then l
          else
            match gid x with Some id -> kill_region l id (Regions.point 0) | None -> l
        in
        match e with
        | E_call (g, args) -> apply_call l g args
        | _ -> Regions.map_join l (reads_map e))
    | S_store (a, i, e) ->
        let l =
          match (i, gid a) with
          | E_int n, Some id when not (is_local a) ->
              kill_region l id (clamp id (Regions.point n))
          | _ -> l
        in
        Regions.map_join l (Regions.map_join (reads_map i) (reads_map e))
    | S_expr (E_call (g, args)) -> apply_call l g args
    | S_expr e -> Regions.map_join l (reads_map e)
    | S_return None -> Regions.map_empty
    | S_return (Some e) -> reads_map e
    | S_if (c, t, e) ->
        Regions.map_join
          (Regions.map_join (bwd_block t l) (bwd_block e l))
          (reads_map c)
    | S_while (c, b) -> loop_fix c b l
  and loop_fix c b l_exit =
    (* H = lfp X. L_exit ⊔ reads(guard) ⊔ B(body, X): the state live at
       the loop head, covering both the continue and the exit path —
       every round-boundary checkpoint of this loop sits here. *)
    let base = Regions.map_join l_exit (reads_map c) in
    let rec fix x n =
      let x' = Regions.map_join base (Regions.map_join x (bwd_block b x)) in
      if Regions.map_leq x' x then x
      else if n >= max_fix then Regions.map_widen x x'
      else fix x' (n + 1)
    in
    fix base 0
  in
  (* Walk the discovered phases (main's top-level structure) in reverse,
     recording at each checkpoint boundary the regions live into the
     rest of the program. A Setup boundary sits after its body; a Round
     boundary is the loop head — havoc-conservative over any number of
     remaining iterations via the fixpoint. *)
  let l_boundaries =
    let l = ref Regions.map_empty in
    List.rev phases
    |> List.map (fun (ph : Phase_discover.phase) ->
           match ph.Phase_discover.p_kind with
           | Phase_discover.Setup ->
               let b = !l in
               l := bwd_block ph.Phase_discover.p_body !l;
               (ph.Phase_discover.p_index, b)
           | Phase_discover.Round { cond } ->
               let h = loop_fix cond ph.Phase_discover.p_body !l in
               l := h;
               (ph.Phase_discover.p_index, h))
    |> List.rev
  in
  { l_env = env; l_uer = uer_tbl; l_mw = mw_tbl; l_boundaries;
    l_rounds = !rounds }

let env t = t.l_env
let rounds t = t.l_rounds

let boundary_map t index =
  match List.assoc_opt index t.l_boundaries with
  | Some m -> m
  | None -> invalid_arg "Live.boundary: unknown phase index"

let boundary t index =
  let m = boundary_map t index in
  List.map
    (fun (name, id) ->
      (name, Regions.clamp_global t.l_env name (Regions.region_of m id)))
    t.l_env.Minic.Check.global_ids

let func_uer t f =
  match Hashtbl.find_opt t.l_uer f with
  | Some m -> m
  | None -> Regions.map_empty

let func_mw t f =
  match Hashtbl.find_opt t.l_mw f with
  | Some m -> m
  | None -> Regions.map_empty

let pp ppf t =
  let pp_map = Regions.pp_map t.l_env in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (f : func) ->
      Format.fprintf ppf "@[<h>%-18s UER %a  MW %a@]@," f.f_name pp_map
        (func_uer t f.f_name) pp_map (func_mw t f.f_name))
    t.l_env.Minic.Check.program.funcs;
  List.iter
    (fun (i, m) ->
      Format.fprintf ppf "@[<h>boundary %-2d live %a@]@," i pp_map m)
    t.l_boundaries;
  Format.fprintf ppf "@]"
