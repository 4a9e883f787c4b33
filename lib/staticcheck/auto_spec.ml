open Jspec

type phase_result = {
  ph : Phase_discover.phase;
  ph_env : Minic.Check.env;
  ph_havoc : string list;
  ph_dirty : Dirty_ai.result;
  ph_regions : (string * Regions.t) list;
  ph_shapes : (string * Sclass.shape) list;
  ph_verdicts : (string * Tv.verdict) list;
  ph_wplan : Barrier_elide.wplan;
  ph_live : (string * Regions.t) list;
  ph_min_regions : (string * Regions.t) list;
  ph_min_shapes : (string * Sclass.shape) list;
  ph_min_verdicts : (string * Tv.verdict) list;
  ph_live_wplan : Barrier_elide.wplan;
}

type t = {
  a_env : Minic.Check.env;
  a_encoding : Shape_infer.encoding;
  a_phases : phase_result list;
  a_live : Live.t;
  a_cache : Spec_cache.t;
  a_findings : Finding.t list;
}

(* ---- seeded-unsound mutation ---------------------------------------------- *)

let rec has_clean (s : Sclass.shape) =
  s.status = Sclass.Clean
  || Array.exists
       (function
         | Sclass.Exact c | Sclass.Nullable c -> has_clean c
         | Sclass.Null_child | Sclass.Unknown | Sclass.Clean_opaque -> false)
       s.children

(* Flip the first Clean-status node to Tracked. The flipped family is
   strictly larger (it includes heaps where that node's [modified] flag is
   set); the residual code — built from the true shape — never tests the
   flag, so translation validation must refute the pair. The opposite flip
   (Tracked→Clean) only shrinks the family and verifies vacuously, which
   is why the seeding goes this direction. *)
let rec flip_first_clean (s : Sclass.shape) =
  if s.status = Sclass.Clean then
    Some { s with Sclass.status = Sclass.Tracked }
  else
    let flipped = ref None in
    let children =
      Array.map
        (fun c ->
          match c with
          | (Sclass.Exact sub | Sclass.Nullable sub) when !flipped = None -> (
              match flip_first_clean sub with
              | Some sub' ->
                  flipped := Some ();
                  (match c with
                  | Sclass.Exact _ -> Sclass.Exact sub'
                  | _ -> Sclass.Nullable sub')
              | None -> c)
          | c -> c)
        s.children
    in
    if !flipped = None then None else Some { s with Sclass.children }

(* ---- inference ------------------------------------------------------------ *)

let original_globals (env : Minic.Check.env) =
  List.map fst env.Minic.Check.global_ids

(* Converge the entry-state havoc of one phase. A [Round] phase's body
   feeds itself: globals it writes in iteration [k] are inputs of
   iteration [k+1], so any global the phase may write joins the havoc set
   until the written-name set is stable. [Setup] phases run exactly once
   and need only the inherited havoc. *)
let converge_dirty ~round phase_env ~originals havoc0 =
  let rec go havoc =
    let dirty = Dirty_ai.analyze ~havoc phase_env in
    let written =
      List.filter
        (fun g -> not (Regions.is_bot (Dirty_ai.write_region dirty g)))
        originals
    in
    let missing = List.filter (fun g -> not (List.mem g havoc)) written in
    if round && missing <> [] then go (havoc @ missing) else (dirty, havoc)
  in
  go havoc0

(* Drop one live block from a non-empty minimized region: the
   seeded-unsound mutation for the {e liveness} gate. The minimized
   checkpointer then skips a block whose value some later read needs —
   the restore-equivalence oracle must catch the stale restore. *)
let seed_dead_region encoding g r =
  match Shape_infer.slot_of encoding g with
  | Shape_infer.Scalar _ -> Regions.bot
  | Shape_infer.Array { length; _ } -> (
      match Shape_infer.tracked_blocks encoding g r with
      | [] -> Regions.bot
      | b :: _ ->
          Regions.meet r
            (Regions.complement_in ~lo:0 ~hi:(length - 1)
               (Regions.interval b.Shape_infer.b_lo b.Shape_infer.b_hi)))

let infer ?(seed_unsound = false) ?(seed_dead = false) ?max_vars ?cache
    (env : Minic.Check.env) =
  let cache = match cache with Some c -> c | None -> Spec_cache.create () in
  let encoding = Shape_infer.encode env in
  let originals = original_globals env in
  let phases = Phase_discover.discover env in
  let live = Live.analyze env phases in
  (* One verdict per structural shape per run; the boolean lands in the
     spec cache so the engine's verified-specialized mode reuses it. *)
  let verdicts = Hashtbl.create 16 in
  let seeded = ref (not seed_unsound) in
  let validate shape =
    let plan = Spec_cache.plan cache shape in
    if (not !seeded) && has_clean shape then (
      seeded := true;
      match flip_first_clean shape with
      | Some mutated -> Tv.verify ?max_vars mutated plan
      | None -> assert false)
    else
      let key = Spec_cache.shape_key shape in
      match Hashtbl.find_opt verdicts key with
      | Some v -> v
      | None ->
          let v = Tv.verify ?max_vars shape plan in
          Hashtbl.replace verdicts key v;
          Spec_cache.set_verdict cache shape plan.Pe.body (Tv.ok v);
          v
  in
  let earlier_writes = ref [] in
  let seeded_dead = ref (not seed_dead) in
  let a_phases =
    List.map
      (fun (ph : Phase_discover.phase) ->
        let ph_env = Minic.Check.check ph.Phase_discover.p_program in
        let havoc0 = ph.Phase_discover.p_lifted @ !earlier_writes in
        let ph_dirty, ph_havoc =
          converge_dirty
            ~round:(Phase_discover.is_round ph)
            ph_env ~originals havoc0
        in
        let ph_regions =
          List.map (fun g -> (g, Dirty_ai.write_region ph_dirty g)) originals
        in
        List.iter
          (fun (g, r) ->
            if (not (Regions.is_bot r)) && not (List.mem g !earlier_writes)
            then earlier_writes := !earlier_writes @ [ g ])
          ph_regions;
        let ph_shapes =
          List.map
            (fun (g, r) -> (g, Shape_infer.shape_of encoding g r))
            ph_regions
        in
        let ph_verdicts = List.map (fun (g, s) -> (g, validate s)) ph_shapes in
        let ph_wplan =
          Barrier_elide.workload_plan ~phase:ph.Phase_discover.p_name encoding
            ph_regions
        in
        (* Minimization: the specialized checkpointer only needs the
           cells that are both may-written this phase and still live at
           this phase's boundary — everything else restores correctly
           from an older segment (unwritten) or is never read again
           (dead). *)
        let ph_live = Live.boundary live ph.Phase_discover.p_index in
        let ph_min_regions =
          List.map
            (fun (g, r) ->
              let lr =
                match List.assoc_opt g ph_live with
                | Some lr -> lr
                | None -> Regions.bot
              in
              let min_r = Regions.meet r lr in
              if (not !seeded_dead) && not (Regions.is_bot min_r) then begin
                seeded_dead := true;
                (g, seed_dead_region encoding g min_r)
              end
              else (g, min_r))
            ph_regions
        in
        let ph_min_shapes =
          List.map
            (fun (g, r) -> (g, Shape_infer.shape_of encoding g r))
            ph_min_regions
        in
        let ph_min_verdicts =
          List.map (fun (g, s) -> (g, validate s)) ph_min_shapes
        in
        let ph_live_wplan =
          Barrier_elide.workload_plan_live ~phase:ph.Phase_discover.p_name
            ph_regions ph_live
        in
        { ph; ph_env; ph_havoc; ph_dirty; ph_regions; ph_shapes;
          ph_verdicts; ph_wplan; ph_live; ph_min_regions; ph_min_shapes;
          ph_min_verdicts; ph_live_wplan })
      phases
  in
  let a_findings =
    List.concat_map
      (fun pr ->
        let phase = pr.ph.Phase_discover.p_name in
        let tv_of scope verdicts =
          List.filter_map
            (fun (g, v) ->
              if Tv.ok v then None
              else
                (* Refuted and Unsupported are both hard errors: the
                   contract of [infer] is "verified specialized
                   checkpointer or refusal", never a silent fallback to
                   the generic algorithm. Minimized shapes are held to
                   the same bar — a pruned checkpointer runs only when
                   its residual code verified. *)
                Some
                  { Finding.severity = Finding.Error;
                    scope = scope ^ ":" ^ phase;
                    path = g;
                    reason = Format.asprintf "%a" Tv.pp v })
            verdicts
        in
        tv_of "infer-tv" pr.ph_verdicts
        @ tv_of "live-tv" pr.ph_min_verdicts
        @ pr.ph_wplan.Barrier_elide.wfindings)
      a_phases
  in
  let a_findings =
    if seed_unsound && not !seeded then
      { Finding.severity = Finding.Warning;
        scope = "infer-tv";
        path = "-";
        reason =
          "seed-unsound: no Clean node in any inferred shape, nothing to \
           mutate" }
      :: a_findings
    else a_findings
  in
  let a_findings =
    if seed_dead && not !seeded_dead then
      { Finding.severity = Finding.Warning;
        scope = "live";
        path = "-";
        reason =
          "seed-unsound: no dirty region is live at any boundary, nothing \
           to mis-minimize" }
      :: a_findings
    else a_findings
  in
  { a_env = env;
    a_encoding = encoding;
    a_phases;
    a_live = live;
    a_cache = cache;
    a_findings = Finding.dedup a_findings }

let ok t = not (Finding.has_errors t.a_findings)

let findings t = t.a_findings

let verified_count t =
  List.fold_left
    (fun n pr ->
      n + List.length (List.filter (fun (_, v) -> Tv.ok v) pr.ph_verdicts))
    0 t.a_phases

(* ---- report --------------------------------------------------------------- *)

let pp_shape_line enc ppf (g, shape, verdict) =
  let detail =
    match Shape_infer.slot_of enc g with
    | Shape_infer.Scalar _ ->
        if shape.Sclass.status = Sclass.Tracked then "tracked" else "clean"
    | Shape_infer.Array { blocks; _ } ->
        let tracked =
          Array.to_list shape.Sclass.children
          |> List.mapi (fun i c -> (i, c))
          |> List.filter_map (fun (i, c) ->
                 match c with
                 | Sclass.Exact s when s.Sclass.status = Sclass.Tracked ->
                     let b = List.nth blocks i in
                     Some
                       (Printf.sprintf "[%d..%d]" b.Shape_infer.b_lo
                          b.Shape_infer.b_hi)
                 | _ -> None)
        in
        if
          Array.for_all
            (function Sclass.Clean_opaque -> true | _ -> false)
            shape.Sclass.children
        then "clean (opaque subtree)"
        else if tracked = [] then "clean blocks"
        else "tracked blocks " ^ String.concat "," tracked
  in
  Format.fprintf ppf "%-12s %-40s %a" g detail Tv.pp verdict

let pp ppf t =
  Format.fprintf ppf "@[<v>encoding:@,  @[<v>%a@]@," Shape_infer.pp
    t.a_encoding;
  List.iter
    (fun pr ->
      Format.fprintf ppf "@,%a@," Phase_discover.pp pr.ph;
      (match pr.ph_havoc with
      | [] -> ()
      | h ->
          Format.fprintf ppf "  havoc on entry: %s@," (String.concat ", " h));
      Format.fprintf ppf "  effects: %a@," (Dirty_ai.pp_effects pr.ph_dirty)
        "main";
      Format.fprintf ppf "  @[<v>%a@]@,"
        (Format.pp_print_list (fun ppf (g, s) ->
             let v = List.assoc g pr.ph_verdicts in
             pp_shape_line t.a_encoding ppf (g, s, v)))
        pr.ph_shapes;
      Format.fprintf ppf "  %a@," Barrier_elide.pp_wplan pr.ph_wplan;
      Format.fprintf ppf "  @[<v>boundary live:@,%a@]@,"
        (Format.pp_print_list (fun ppf (g, r) ->
             let min_r = List.assoc g pr.ph_min_regions in
             Format.fprintf ppf "%-12s live %-14s kept %a" g
               (Format.asprintf "%a" Regions.pp r)
               Regions.pp min_r))
        pr.ph_live)
    t.a_phases;
  if t.a_findings <> [] then
    Format.fprintf ppf "@,%a" Finding.pp_report t.a_findings;
  Format.fprintf ppf "@]"
