(* May-read/may-write interference analysis: the static scheduler behind
   parallel engine runs. Footprints live on the Regions interval
   lattice; disjointness there is exact (Regions.disjoint), so a
   "schedule parallel" decision is a proof, and every may-overlap is a
   Finding-reported refusal that keeps the work serial. *)

open Minic

type footprint = {
  fp_reads : (string * Regions.t) list;
  fp_writes : (string * Regions.t) list;
}

(* ---- footprint plumbing ---------------------------------------------------- *)

let assoc_region name l =
  match List.assoc_opt name l with Some r -> r | None -> Regions.bot

let assoc_add name r l =
  if Regions.is_bot r then l
  else
    match List.assoc_opt name l with
    | None -> l @ [ (name, r) ]
    | Some r' ->
        List.map (fun (n, x) -> if n = name then (n, Regions.join r' r) else (n, x)) l

(* Region map keyed by this env's gids -> name-keyed, clamped to extents. *)
let named_of_map env m =
  Regions.Gid_map.fold
    (fun gid r acc ->
      if Regions.is_bot r then acc
      else
        let name = Check.global_name env gid in
        assoc_add name (Regions.clamp_global env name r) acc)
    m []

(* A self-contained program's footprint: [main]'s may-read and may-write
   regions, name-keyed in declaration order. *)
let footprint_of env dirty =
  { fp_reads = named_of_map env (Dirty_ai.main_reads dirty);
    fp_writes = named_of_map env (Dirty_ai.main_writes dirty) }

let fp_region fp name =
  Regions.join (assoc_region name fp.fp_reads) (assoc_region name fp.fp_writes)

(* First global on which a write of one side meets the footprint of the
   other. Returns (global, writer's region, other side's region). *)
let footprint_conflict a b =
  let against writes other =
    List.find_map
      (fun (name, w) ->
        let o = fp_region other name in
        if Regions.disjoint w o then None else Some (name, w, o))
      writes
  in
  match against a.fp_writes b with
  | Some _ as c -> c
  | None -> against b.fp_writes a

let pp_named ppf l =
  let l = List.filter (fun (_, r) -> not (Regions.is_bot r)) l in
  if l = [] then Format.pp_print_string ppf "{}"
  else
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (name, r) ->
           if Regions.equal r (Regions.point 0) then
             Format.pp_print_string ppf name
           else Format.fprintf ppf "%s[%a]" name Regions.pp r))
      l

let pp_footprint ppf fp =
  Format.fprintf ppf "reads %a writes %a" pp_named fp.fp_reads pp_named
    fp.fp_writes

(* ---- schedule types -------------------------------------------------------- *)

module Schedule = struct
  type strip = {
    st_index : int;
    st_lo : int;
    st_hi : int;
    st_program : Ast.program;
    st_foot : footprint;
  }

  type sweep = {
    sw_func : string;
    sw_var : string;
    sw_lo : int;
    sw_hi : int;
    sw_strips : strip list;
  }

  type unit_plan = Serial of Ast.stmt | Par_sweep of sweep

  type phase_sched = {
    ps_phase : Phase_discover.phase;
    ps_foot : footprint;
    ps_group : int;
    ps_units : unit_plan list;
  }

  type t = {
    sc_domains : int;
    sc_phases : phase_sched list;
    sc_findings : Finding.t list;
    sc_seeded : bool;
    sc_par_sweeps : int;
    sc_refused_sweeps : int;
    sc_groups : int;
  }
end

open Schedule

(* ---- sweep recognition ----------------------------------------------------- *)

(* A refusal aborts the sweep candidate; the reason lands in the Warning
   finding and the call stays serial. *)
exception Refuse of string

let rec assigns_var x b =
  List.exists
    (fun s ->
      match s.Ast.node with
      | Ast.S_assign (v, _) -> v = x
      | Ast.S_if (_, t, f) -> assigns_var x t || assigns_var x f
      | Ast.S_while (_, w) -> assigns_var x w
      | _ -> false)
    b

(* The counted-sweep skeleton this analysis strips:
     f() {  x = lo;  while (x < hi) { B; x = x + 1; }  }
   with f nullary void, x a local of f, and lo/hi statically constant. *)
type candidate = {
  ca_func : Ast.func;
  ca_var : string;
  ca_lo : int;
  ca_hi : int;
  ca_body : Ast.block;  (* B, increment excluded *)
  ca_incr : Ast.stmt;
}

let recognize dirty program fname =
  match Ast.find_func program fname with
  | None -> raise (Refuse "unknown function")
  | Some f ->
      if f.Ast.f_params <> [] || f.Ast.f_ret <> Ast.T_void then
        raise (Refuse "not a nullary void sweep");
      let is_local v =
        List.exists (fun d -> d.Ast.v_name = v) f.Ast.f_locals
      in
      (match f.Ast.f_body with
      | [ { Ast.node = Ast.S_assign (x, e_lo); _ };
          { Ast.node = Ast.S_while (Ast.E_binop (Ast.B_lt, Ast.E_var x', e_hi), wbody);
            _ } ]
        when x = x' && is_local x -> (
          match List.rev wbody with
          | { Ast.node =
                Ast.S_assign
                  (x'', Ast.E_binop (Ast.B_add, Ast.E_var x''', Ast.E_int 1));
              _ } as incr
            :: rev_b
            when x'' = x && x''' = x ->
              let b = List.rev rev_b in
              if assigns_var x b then
                raise (Refuse "induction variable reassigned in body");
              let lo =
                match Dirty_ai.constant dirty e_lo with
                | Some n -> n
                | None -> raise (Refuse "lower bound not statically constant")
              in
              let hi =
                match Dirty_ai.constant dirty e_hi with
                | Some n -> n
                | None -> raise (Refuse "upper bound not statically constant")
              in
              { ca_func = f; ca_var = x; ca_lo = lo; ca_hi = hi;
                ca_body = b; ca_incr = incr }
          | _ -> raise (Refuse "loop does not end in x = x + 1"))
      | _ -> raise (Refuse "body is not assign-then-single-while"))

(* ---- strip construction ---------------------------------------------------- *)

(* The strip's self-contained program: the sweep rewritten to constant
   bounds over exactly [s_lo, s_hi), called from a bare main. Constant
   bounds mean the strip re-reads no bound globals at run time, matching
   the footprint (which never includes them). *)
let strip_program program ca s_lo s_hi =
  let f = ca.ca_func in
  let f' =
    { f with
      Ast.f_body =
        [ Ast.stmt (Ast.S_assign (ca.ca_var, Ast.E_int s_lo));
          Ast.stmt
            (Ast.S_while
               ( Ast.E_binop (Ast.B_lt, Ast.E_var ca.ca_var, Ast.E_int s_hi),
                 ca.ca_body @ [ ca.ca_incr ] )) ] }
  in
  let funcs =
    List.filter_map
      (fun g ->
        if g.Ast.f_name = "main" then None
        else if g.Ast.f_name = f.Ast.f_name then Some f'
        else Some g)
      program.Ast.funcs
  in
  let main =
    { Ast.f_name = "main"; f_params = []; f_locals = [];
      f_body = [ Ast.stmt (Ast.S_expr (Ast.E_call (f.Ast.f_name, []))) ];
      f_ret = Ast.T_void }
  in
  Ast.number { program with Ast.funcs = funcs @ [ main ] }

(* Each strip is a fresh activation of the sweep function, so a body
   that carries a local from one iteration into the next, keeps a local
   array or returns early would behave differently once split: a
   refusal, not an approximation. Locals must be definitely assigned
   before they are read; an [if] keeps only what both arms assign. A
   nested loop is refused as well, though Dirty_ai could bound it. *)
let check_body ca =
  let refuse fmt = Printf.ksprintf (fun m -> raise (Refuse m)) fmt in
  let locals = ca.ca_func.Ast.f_locals in
  let is_array v =
    List.exists
      (fun d ->
        d.Ast.v_name = v
        && match d.Ast.v_typ with Ast.T_array _ -> true | _ -> false)
      locals
  in
  let is_local v = List.exists (fun d -> d.Ast.v_name = v) locals in
  let rec expr set e =
    match e with
    | Ast.E_int _ -> ()
    | Ast.E_var v ->
        if is_array v then refuse "local array %s in body" v
        else if is_local v && not (List.mem v set) then
          refuse "local %s may carry a value across iterations" v
    | Ast.E_index (a, i) ->
        expr set i;
        if is_local a then refuse "local array %s in body" a
    | Ast.E_unop (_, e) -> expr set e
    | Ast.E_binop (_, a, b) ->
        expr set a;
        expr set b
    | Ast.E_call (_, args) -> List.iter (expr set) args
  in
  let rec stmt set s =
    match s.Ast.node with
    | Ast.S_assign (v, e) ->
        expr set e;
        if is_local v then v :: set else set
    | Ast.S_store (a, i, e) ->
        if is_local a then refuse "local array %s in body" a;
        expr set i;
        expr set e;
        set
    | Ast.S_expr e ->
        expr set e;
        set
    | Ast.S_if (c, t, f) ->
        expr set c;
        let st = block set t and sf = block set f in
        List.filter (fun v -> List.mem v sf) st
    | Ast.S_while _ -> refuse "nested loop in body"
    | Ast.S_return _ -> refuse "return in body"
  and block set b = List.fold_left stmt set b in
  ignore (block [ ca.ca_var ] ca.ca_body)

let pp_region_to_string r = Format.asprintf "%a" Regions.pp r

(* Partition [lo, hi) into at most [domains] equal strips, each analysed
   as its own program, and prove every pair footprint-disjoint. [widen]
   (seed_racy) then stretches strip 0's executed range one cell into
   strip 1's while every footprint still claims disjointness — only the
   dynamic observed-footprint check can notice. *)
let build_sweep ~widen program havoc domains ca =
  let span = ca.ca_hi - ca.ca_lo in
  if span < 1 then raise (Refuse "sweep executes no iterations");
  check_body ca;
  let n = min domains span in
  let strips =
    List.init n (fun i ->
        let s_lo = ca.ca_lo + (span * i / n) in
        let s_hi = ca.ca_lo + (span * (i + 1) / n) in
        let st_program = strip_program program ca s_lo s_hi in
        let env = Check.check st_program in
        { st_index = i; st_lo = s_lo; st_hi = s_hi; st_program;
          st_foot = footprint_of env (Dirty_ai.analyze ~havoc env) })
  in
  List.iteri
    (fun i si ->
      List.iteri
        (fun j sj ->
          if j > i then
            match footprint_conflict si.st_foot sj.st_foot with
            | Some (name, r1, r2) ->
                raise
                  (Refuse
                     (Printf.sprintf
                        "strips %d and %d may conflict on %s: %s vs %s" i j
                        name
                        (pp_region_to_string r1)
                        (pp_region_to_string r2)))
            | None -> ())
        strips)
    strips;
  let strips =
    match strips with
    | s0 :: (_ :: _ as rest) when widen ->
        let st_program = strip_program program ca s0.st_lo (s0.st_hi + 1) in
        { s0 with st_program } :: rest
    | _ -> strips
  in
  { sw_func = ca.ca_func.Ast.f_name; sw_var = ca.ca_var; sw_lo = ca.ca_lo;
    sw_hi = ca.ca_hi; sw_strips = strips }

(* ---- the schedule ---------------------------------------------------------- *)

let refusal ~scope ~path reason =
  Finding.
    { severity = Warning; scope; path; reason }

let schedule ?(domains = 4) ?(seed_racy = false) (auto : Auto_spec.t) =
  let domains = max 1 domains in
  let findings = ref [] in
  let refused = ref 0 in
  let par_sweeps = ref 0 in
  let seeded = ref false in
  let program = auto.Auto_spec.a_env.Check.program in
  (* Per-phase units: round bodies partitioned into serial statements and
     provably disjoint sweeps. *)
  let units_of pr =
    let ph = pr.Auto_spec.ph in
    match ph.Phase_discover.p_kind with
    | Phase_discover.Setup -> []
    | Phase_discover.Round _ ->
        List.map
          (fun s ->
            match s.Ast.node with
            | Ast.S_expr (Ast.E_call (fname, [])) -> (
                let widen = seed_racy && not !seeded in
                match
                  build_sweep ~widen program pr.Auto_spec.ph_havoc domains
                    (recognize pr.Auto_spec.ph_dirty program fname)
                with
                | sweep ->
                    incr par_sweeps;
                    if widen && List.length sweep.sw_strips >= 2 then
                      seeded := true;
                    Par_sweep sweep
                | exception Refuse reason ->
                    incr refused;
                    findings :=
                      refusal
                        ~scope:("par:" ^ ph.Phase_discover.p_name)
                        ~path:fname reason
                      :: !findings;
                    Serial s)
            | _ -> Serial s)
          ph.Phase_discover.p_body
  in
  (* Group consecutive phases that are pairwise non-interfering. A phase
     whose footprint writes a lifted array local never groups: the
     engine's phase units carry only scalar locals back to the master
     session, so an array-local update could not be reconciled. *)
  let groupable pr foot =
    not
      (List.exists
         (fun lifted ->
           Check.is_global_array pr.Auto_spec.ph_env lifted
           && not (Regions.is_bot (assoc_region lifted foot.fp_writes)))
         pr.Auto_spec.ph.Phase_discover.p_lifted)
  in
  let next_group = ref (-1) in
  let scheds, _ =
    List.fold_left
      (fun (acc, group) pr ->
        let foot = footprint_of pr.Auto_spec.ph_env pr.Auto_spec.ph_dirty in
        let ph = pr.Auto_spec.ph in
        let units = units_of pr in
        (* A phase with a parallel sweep keeps its strip-level
           parallelism and stays a singleton group: grouping would demote
           it to whole-phase execution on one domain. *)
        let has_sweep =
          List.exists (function Par_sweep _ -> true | Serial _ -> false) units
        in
        let can_group = groupable pr foot && not has_sweep in
        let conflict =
          if can_group && group <> [] then
            List.find_map
              (fun (prev : phase_sched) ->
                match footprint_conflict prev.ps_foot foot with
                | Some (name, r1, r2) -> Some (prev, name, r1, r2)
                | None -> None)
              group
          else None
        in
        (match conflict with
        | Some (prev, name, r1, r2) ->
            findings :=
              refusal ~scope:"par:phases"
                ~path:
                  (prev.ps_phase.Phase_discover.p_name ^ "+"
                 ^ ph.Phase_discover.p_name)
                (Printf.sprintf "phases may interfere on %s: %s vs %s" name
                   (pp_region_to_string r1)
                   (pp_region_to_string r2))
              :: !findings
        | None -> ());
        let joins = can_group && group <> [] && conflict = None in
        let gid =
          if joins then !next_group
          else begin
            incr next_group;
            !next_group
          end
        in
        let sched =
          { ps_phase = ph; ps_foot = foot; ps_group = gid; ps_units = units }
        in
        let group =
          if joins then sched :: group
          else if can_group then [ sched ]
          else []
        in
        (sched :: acc, group))
      ([], []) auto.Auto_spec.a_phases
  in
  let scheds = List.rev scheds in
  (* Count groups of two or more phases. *)
  let groups =
    let tally = Hashtbl.create 8 in
    List.iter
      (fun ps ->
        Hashtbl.replace tally ps.ps_group
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally ps.ps_group)))
      scheds;
    Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) tally 0
  in
  { sc_domains = domains; sc_phases = scheds;
    sc_findings = List.rev !findings; sc_seeded = !seeded;
    sc_par_sweeps = !par_sweeps; sc_refused_sweeps = !refused;
    sc_groups = groups }

(* ---- rendering ------------------------------------------------------------- *)

let pp ppf sc =
  Format.fprintf ppf
    "@[<v>parallel schedule: %d domain(s), %d parallel sweep(s), %d refused, %d phase group(s)%s"
    sc.sc_domains sc.sc_par_sweeps sc.sc_refused_sweeps sc.sc_groups
    (if sc.sc_seeded then ", RACY SEED INJECTED" else "");
  List.iter
    (fun ps ->
      Format.fprintf ppf "@,phase %d  %-24s group %d"
        ps.ps_phase.Phase_discover.p_index ps.ps_phase.Phase_discover.p_name
        ps.ps_group;
      Format.fprintf ppf "@,  %a" pp_footprint ps.ps_foot;
      List.iter
        (fun u ->
          match u with
          | Serial s -> Format.fprintf ppf "@,  serial  %a" Pp.pp_stmt s
          | Par_sweep sw ->
              Format.fprintf ppf "@,  sweep   %s()  %s = [%d, %d)  %d strip(s)"
                sw.sw_func sw.sw_var sw.sw_lo sw.sw_hi
                (List.length sw.sw_strips);
              List.iter
                (fun st ->
                  Format.fprintf ppf "@,    strip %d [%d, %d)  %a" st.st_index
                    st.st_lo st.st_hi pp_footprint st.st_foot)
                sw.sw_strips)
        ps.ps_units)
    sc.sc_phases;
  List.iter
    (fun f -> Format.fprintf ppf "@,%a" Finding.pp f)
    sc.sc_findings;
  Format.fprintf ppf "@]"
