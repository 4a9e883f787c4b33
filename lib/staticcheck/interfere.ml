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

(* ---- per-strip footprint evaluation ---------------------------------------- *)

(* A refusal mid-analysis aborts the sweep candidate; the reason lands in
   the Warning finding and the call stays serial. *)
exception Refuse of string

type ctx = {
  cx_env : Check.env;  (* the phase's one-round analysis env *)
  cx_dirty : Dirty_ai.result;  (* over cx_env *)
  cx_orig : Check.env;  (* the original program's env *)
  cx_live : Live.t;  (* over cx_orig *)
  mutable cx_reads : (string * Regions.t) list;
  mutable cx_writes : (string * Regions.t) list;
}

let add_read cx name r = cx.cx_reads <- assoc_add name r cx.cx_reads
let add_write cx name r = cx.cx_writes <- assoc_add name r cx.cx_writes

(* Transitive effect of one call: may-writes from the dirty analysis,
   may-reads from the liveness pass's upward-exposed-read summary. UER is
   exactly the right read set here — a cell the callee writes before
   reading is not exposed to other strips' writes, and it already sits in
   the write footprint. *)
let add_call_effects cx g =
  List.iter
    (fun (name, r) -> add_write cx name r)
    (named_of_map cx.cx_env (Dirty_ai.func_writes cx.cx_dirty g));
  List.iter
    (fun (name, r) -> add_read cx name r)
    (named_of_map cx.cx_orig (Live.func_uer cx.cx_live g))

(* Locals of the sweep callee: flow-sensitive interval per scalar. A local
   carrying a value from one iteration into the next would break at strip
   boundaries (each strip is a fresh activation), so reading a local
   before the body assigns it is a refusal, not an approximation. *)
type lstate = Unset | Set of Regions.itv

let cmp_itv = Regions.itv 0 1

let rec eval cx locals arrays e =
  match e with
  | Ast.E_int n -> Regions.itv_point n
  | Ast.E_var v -> (
      match List.assoc_opt v locals with
      | Some (Set i) -> i
      | Some Unset ->
          raise
            (Refuse
               (Printf.sprintf
                  "local %s may carry a value across iterations" v))
      | None ->
          if List.mem v arrays then
            raise (Refuse (Printf.sprintf "local array %s in body" v))
          else begin
            add_read cx v
              (Regions.clamp_global cx.cx_env v (Regions.point 0));
            Dirty_ai.global_value cx.cx_dirty v
          end)
  | Ast.E_index (a, i) ->
      let iv = eval cx locals arrays i in
      if List.mem_assoc a locals || List.mem a arrays then
        raise (Refuse (Printf.sprintf "local array %s in body" a));
      add_read cx a
        (Regions.clamp_global cx.cx_env a (Regions.of_itv iv));
      Dirty_ai.global_value cx.cx_dirty a
  | Ast.E_unop (Ast.U_neg, e) -> Regions.itv_neg (eval cx locals arrays e)
  | Ast.E_unop (Ast.U_not, e) ->
      ignore (eval cx locals arrays e);
      cmp_itv
  | Ast.E_binop (op, a, b) -> (
      let ia = eval cx locals arrays a in
      let ib = eval cx locals arrays b in
      match op with
      | Ast.B_add -> Regions.itv_add ia ib
      | Ast.B_sub -> Regions.itv_sub ia ib
      | Ast.B_mul -> Regions.itv_mul ia ib
      | Ast.B_div -> Regions.itv_div ia ib
      | Ast.B_mod -> Regions.itv_rem ia ib
      | Ast.B_lt | Ast.B_le | Ast.B_gt | Ast.B_ge | Ast.B_eq | Ast.B_ne
      | Ast.B_and | Ast.B_or ->
          cmp_itv)
  | Ast.E_call (g, args) ->
      List.iter (fun a -> ignore (eval cx locals arrays a)) args;
      add_call_effects cx g;
      Regions.itv_full

let rec exec cx locals arrays s =
  match s.Ast.node with
  | Ast.S_assign (v, e) ->
      let iv = eval cx locals arrays e in
      if List.mem_assoc v locals then
        List.map (fun (n, st) -> if n = v then (n, Set iv) else (n, st)) locals
      else begin
        add_write cx v
          (Regions.clamp_global cx.cx_env v (Regions.point 0));
        locals
      end
  | Ast.S_store (a, i, e) ->
      if List.mem_assoc a locals || List.mem a arrays then
        raise (Refuse (Printf.sprintf "local array %s in body" a));
      let iv = eval cx locals arrays i in
      ignore (eval cx locals arrays e);
      add_write cx a
        (Regions.clamp_global cx.cx_env a (Regions.of_itv iv));
      locals
  | Ast.S_expr e ->
      ignore (eval cx locals arrays e);
      locals
  | Ast.S_if (c, t, f) ->
      ignore (eval cx locals arrays c);
      let lt = exec_block cx locals arrays t in
      let lf = exec_block cx locals arrays f in
      List.map2
        (fun (n, a) (_, b) ->
          match (a, b) with
          | Set ia, Set ib -> (n, Set (Regions.itv_join ia ib))
          | _ -> (n, Unset))
        lt lf
  | Ast.S_while _ -> raise (Refuse "nested loop in body")
  | Ast.S_return _ -> raise (Refuse "return in body")

and exec_block cx locals arrays b = List.fold_left (fun l s -> exec cx l arrays s) locals b

(* ---- sweep recognition ----------------------------------------------------- *)

(* Statically constant value of a bound expression: literals, globals
   whose flow-insensitive value approximation is a single point (set once,
   never written differently — the phase analysis havocs anything another
   phase may write, so a havoced bound is rejected here), and arithmetic
   over those. *)
let rec const_of cx e =
  match e with
  | Ast.E_int n -> Some n
  | Ast.E_var v -> (
      match Check.extent cx.cx_env v with
      | None -> None (* a local: not a statically known bound *)
      | Some _ ->
          let iv = Dirty_ai.global_value cx.cx_dirty v in
          if iv.Regions.lo = iv.Regions.hi then Some iv.Regions.lo else None)
  | Ast.E_unop (Ast.U_neg, e) -> Option.map (fun n -> -n) (const_of cx e)
  | Ast.E_binop (op, a, b) -> (
      match (const_of cx a, const_of cx b) with
      | Some x, Some y -> (
          match op with
          | Ast.B_add -> Some (x + y)
          | Ast.B_sub -> Some (x - y)
          | Ast.B_mul -> Some (x * y)
          | Ast.B_div -> if y = 0 then None else Some (x / y)
          | Ast.B_mod -> if y = 0 then None else Some (x mod y)
          | _ -> None)
      | _ -> None)
  | _ -> None

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

let recognize cx program fname =
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
                match const_of cx e_lo with
                | Some n -> n
                | None -> raise (Refuse "lower bound not statically constant")
              in
              let hi =
                match const_of cx e_hi with
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

let strip_footprint cx ca s_lo s_hi =
  cx.cx_reads <- [];
  cx.cx_writes <- [];
  let f = ca.ca_func in
  let arrays =
    List.filter_map
      (fun d ->
        match d.Ast.v_typ with
        | Ast.T_array _ -> Some d.Ast.v_name
        | _ -> None)
      f.Ast.f_locals
  in
  let locals =
    List.filter_map
      (fun d ->
        match d.Ast.v_typ with
        | Ast.T_array _ -> None
        | _ ->
            if d.Ast.v_name = ca.ca_var then
              Some (d.Ast.v_name, Set (Regions.itv s_lo (s_hi - 1)))
            else Some (d.Ast.v_name, Unset))
      f.Ast.f_locals
  in
  ignore (exec_block cx locals arrays ca.ca_body);
  { fp_reads = cx.cx_reads; fp_writes = cx.cx_writes }

let pp_region_to_string r = Format.asprintf "%a" Regions.pp r

(* Partition [lo, hi) into at most [domains] equal strips and prove every
   pair footprint-disjoint. *)
let build_sweep cx program domains ca =
  let span = ca.ca_hi - ca.ca_lo in
  if span < 1 then raise (Refuse "sweep executes no iterations");
  let n = min domains span in
  let strips =
    List.init n (fun i ->
        let s_lo = ca.ca_lo + (span * i / n) in
        let s_hi = ca.ca_lo + (span * (i + 1) / n) in
        { st_index = i; st_lo = s_lo; st_hi = s_hi;
          st_program = strip_program program ca s_lo s_hi;
          st_foot = strip_footprint cx ca s_lo s_hi })
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
  { sw_func = ca.ca_func.Ast.f_name; sw_var = ca.ca_var; sw_lo = ca.ca_lo;
    sw_hi = ca.ca_hi; sw_strips = strips }

(* ---- phase footprints and grouping ----------------------------------------- *)

let phase_footprint (pr : Auto_spec.phase_result) =
  let named = named_of_map pr.Auto_spec.ph_env in
  { fp_reads = named (Dirty_ai.main_reads pr.Auto_spec.ph_dirty);
    fp_writes = named (Dirty_ai.main_writes pr.Auto_spec.ph_dirty) }

(* ---- the schedule ---------------------------------------------------------- *)

let refusal ~scope ~path reason =
  Finding.
    { severity = Warning; scope; path; reason }

let schedule ?(domains = 4) ?(seed_racy = false) (auto : Auto_spec.t) =
  let domains = max 1 domains in
  let findings = ref [] in
  let refused = ref 0 in
  let par_sweeps = ref 0 in
  let orig = auto.Auto_spec.a_env in
  let program = orig.Check.program in
  (* Per-phase units: round bodies partitioned into serial statements and
     provably disjoint sweeps. *)
  let units_of pr =
    let ph = pr.Auto_spec.ph in
    match ph.Phase_discover.p_kind with
    | Phase_discover.Setup -> []
    | Phase_discover.Round _ ->
        let cx =
          { cx_env = pr.Auto_spec.ph_env; cx_dirty = pr.Auto_spec.ph_dirty;
            cx_orig = orig; cx_live = auto.Auto_spec.a_live;
            cx_reads = []; cx_writes = [] }
        in
        List.map
          (fun s ->
            match s.Ast.node with
            | Ast.S_expr (Ast.E_call (fname, [])) -> (
                match build_sweep cx program domains (recognize cx program fname) with
                | sweep ->
                    incr par_sweeps;
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
        let foot = phase_footprint pr in
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
  (* seed_racy: widen the first parallel strip's executed range by one
     cell, after all static checks. The strip then writes a cell the next
     strip owns while every footprint still claims disjointness — only
     the dynamic observed-footprint check can notice. *)
  let seeded = ref false in
  let scheds =
    if not seed_racy then scheds
    else
      List.map
        (fun ps ->
          { ps with
            ps_units =
              List.map
                (fun u ->
                  match u with
                  | Par_sweep sw
                    when (not !seeded) && List.length sw.sw_strips >= 2 ->
                      seeded := true;
                      let widen st =
                        let bump f =
                          match f.Ast.f_body with
                          | [ a;
                              ({ Ast.node =
                                   Ast.S_while
                                     ( Ast.E_binop
                                         (Ast.B_lt, x, Ast.E_int hi),
                                       wb );
                                 _ } as w) ] ->
                              [ a;
                                { w with
                                  Ast.node =
                                    Ast.S_while
                                      ( Ast.E_binop
                                          (Ast.B_lt, x, Ast.E_int (hi + 1)),
                                        wb ) } ]
                          | body -> body
                        in
                        { st with
                          st_program =
                            { st.st_program with
                              Ast.funcs =
                                List.map
                                  (fun f ->
                                    if f.Ast.f_name = sw.sw_func then
                                      { f with Ast.f_body = bump f }
                                    else f)
                                  st.st_program.Ast.funcs } }
                      in
                      Par_sweep
                        { sw with
                          sw_strips =
                            (match sw.sw_strips with
                            | first :: rest -> widen first :: rest
                            | [] -> []) }
                  | u -> u)
                ps.ps_units })
        scheds
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
