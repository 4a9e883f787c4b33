type site = Lists | Bt | Et

let site_name = function Lists -> "se-lists" | Bt -> "bt" | Et -> "et"
let all_sites = [ Lists; Bt; Et ]

let site_region phase site =
  let r = (Infer.derive phase).Infer.effects in
  match site with
  | Lists ->
      Regions.join
        (Dirty_ai.write_region r Phase_model.g_se_reads)
        (Dirty_ai.write_region r Phase_model.g_se_writes)
  | Bt -> Dirty_ai.write_region r Phase_model.g_bt
  | Et -> Dirty_ai.write_region r Phase_model.g_et

(* A site's extent is the attribute array length of the phase model: one
   cell per statement. *)
let site_extent phase =
  match Minic.Check.extent (Phase_model.env phase) Phase_model.g_bt with
  | Some (_, hi) -> hi + 1
  | None -> 0

(* The phase models abstract a program of arbitrarily many statements
   with fixed-size attribute arrays; the last model cell summarizes
   every sid at or beyond it. Rescale a model region to a workload's
   statement count under that convention. *)
let site_region_for ~n_stmts phase site =
  let r = site_region phase site in
  let m = site_extent phase in
  if n_stmts <= 0 || Regions.is_bot r then Regions.bot
  else if n_stmts <= m then Regions.clamp ~lo:0 ~hi:(n_stmts - 1) r
  else if Regions.mem (m - 1) r then
    Regions.join r (Regions.interval (m - 1) (n_stmts - 1))
  else r

type decision = {
  site : site;
  elide : bool;
  region : Regions.t;
  reason : string;
}

type plan = {
  phase : Phase_model.phase;
  decisions : decision list;
  guard_shape : Jspec.Sclass.shape option;
  findings : Finding.t list;
}

let decide phase site =
  let region = site_region phase site in
  if Regions.is_bot region then
    { site;
      elide = true;
      region;
      reason =
        "may-write region empty: barrier and flag maintenance compiled out" }
  else
    let n = site_extent phase in
    let clean = Regions.complement_in ~lo:0 ~hi:(n - 1) region in
    let reason =
      if Regions.is_bot clean then
        Format.asprintf "statically may-written over the whole extent (%a)"
          Regions.pp region
      else
        Format.asprintf
          "may-write region %a leaves cells %a provably clean, but \
           object-granularity barriers cannot elide per cell"
          Regions.pp region Regions.pp clean
    in
    { site; elide = false; region; reason }

(* ---- guard pruning -------------------------------------------------------- *)

(* The attribute-tree node each klass's [modified] flag stands for. The
   spine (Attributes, BTEntry, ETEntry) maps to no site: nothing in the
   Attrs API mutates it after creation, so its cleanliness checks are
   discharged structurally whenever every flag check is — the oracle
   re-validates this dynamically. *)
let site_of_kname = function
  | "SEEntry" | "VarRef" -> Some (Some Lists)
  | "BT" -> Some (Some Bt)
  | "ET" -> Some (Some Et)
  | "Attributes" | "BTEntry" | "ETEntry" -> Some None
  | _ -> None (* unknown klass: never discharge *)

let rec prune ~discharged (s : Jspec.Sclass.shape) =
  let open Jspec.Sclass in
  let kname = s.klass.Ickpt_runtime.Model.kname in
  let residue = ref 0 in
  let status =
    match s.status with
    | Tracked -> Tracked
    | Clean -> (
        match site_of_kname kname with
        | Some None -> Tracked (* spine: discharged structurally *)
        | Some (Some site) when discharged site -> Tracked
        | _ ->
            incr residue;
            Clean)
  in
  let children =
    Array.map
      (function
        | Clean_opaque when discharged Lists -> Unknown
        | Clean_opaque ->
            incr residue;
            Clean_opaque
        | Exact c ->
            let c, r = prune ~discharged c in
            residue := !residue + r;
            Exact c
        | Nullable c ->
            let c, r = prune ~discharged c in
            residue := !residue + r;
            Nullable c
        | (Null_child | Unknown) as c -> c)
      s.children
  in
  (shape ~status s.klass children, !residue)

let plan ~declared phase =
  let decisions = List.map (decide phase) all_sites in
  let discharged site =
    List.exists (fun d -> d.site = site && d.elide) decisions
  in
  let findings =
    (* A Clean declaration the region analysis contradicts is unsound to
       elide (and spec-lint reports it too); a kept barrier with a
       partially clean region is imprecision worth surfacing. *)
    let scope = "elide:" ^ Phase_model.name phase in
    let declared_clean site =
      (* does the declared shape claim the site clean? *)
      let open Jspec.Sclass in
      let rec scan s =
        let here =
          match site_of_kname s.klass.Ickpt_runtime.Model.kname with
          | Some (Some si) when si = site -> s.status = Clean
          | _ -> false
        in
        here
        || Array.exists
             (function
               | Exact c | Nullable c -> scan c
               | Clean_opaque -> site = Lists
               | Null_child | Unknown -> false)
             s.children
      in
      scan declared
    in
    List.concat_map
      (fun d ->
        if d.elide then []
        else if declared_clean d.site then
          [ { Finding.severity = Finding.Error;
              scope;
              path = site_name d.site;
              reason =
                Format.asprintf
                  "declared Clean but the phase may write region %a: \
                   elision would be unsound, barrier kept"
                  Regions.pp d.region } ]
        else if
          not (Regions.is_bot (Regions.complement_in ~lo:0
                 ~hi:(site_extent phase - 1) d.region))
        then
          [ { Finding.severity = Finding.Warning;
              scope;
              path = site_name d.site;
              reason = d.reason } ]
        else [])
      decisions
  in
  let guard_shape =
    let pruned, residue = prune ~discharged declared in
    if residue = 0 && not (Finding.has_errors findings) then None
    else Some pruned
  in
  { phase; decisions; guard_shape; findings }

let elided p = List.filter_map (fun d -> if d.elide then Some d.site else None) p.decisions

let decision p site =
  match List.find_opt (fun d -> d.site = site) p.decisions with
  | Some d -> d
  | None -> invalid_arg "Barrier_elide.decision"

let pp ppf p =
  Format.fprintf ppf "@[<v 2>phase %s:" (Phase_model.name p.phase);
  List.iter
    (fun d ->
      Format.fprintf ppf "@,%-8s %s  (%s)" (site_name d.site)
        (if d.elide then "elide" else "keep ")
        d.reason)
    p.decisions;
  (match p.guard_shape with
  | None -> Format.fprintf ppf "@,guard: fully discharged (skipped at run time)"
  | Some _ -> Format.fprintf ppf "@,guard: retained");
  List.iter (fun f -> Format.fprintf ppf "@,%a" Finding.pp f) p.findings;
  Format.fprintf ppf "@]"

(* ---- workload plans (annotation-free pipeline) ---------------------------- *)

type wdecision = {
  wglobal : string;
  welide : bool;
  wregion : Regions.t;
  wreason : string;
}

type wplan = {
  wphase : string;
  wdecisions : wdecision list;
  wfindings : Finding.t list;
}

let workload_plan ~phase enc regions =
  let scope = "elide:" ^ phase in
  let wdecisions =
    List.map
      (fun (g, region) ->
        let welide = Regions.is_bot region in
        let wreason =
          if welide then "no may-write: barrier and flag maintenance elided"
          else
            Format.asprintf "may-write region %a: barrier kept" Regions.pp
              region
        in
        { wglobal = g; welide; wregion = region; wreason })
      regions
  in
  let wfindings =
    List.concat_map
      (fun d ->
        if d.welide then []
        else
          match Shape_infer.slot_of enc d.wglobal with
          | Shape_infer.Scalar _ -> []
          | Shape_infer.Array { length; _ } ->
              let clean =
                Regions.complement_in ~lo:0 ~hi:(length - 1) d.wregion
              in
              if Regions.is_bot clean then []
              else
                [ { Finding.severity = Finding.Warning;
                    scope;
                    path = d.wglobal;
                    reason =
                      Format.asprintf
                        "partially clean (%a definitely clean): whole-array \
                         barrier kept; the inferred shape still marks clean \
                         blocks Clean"
                        Regions.pp clean } ])
      wdecisions
  in
  { wphase = phase; wdecisions; wfindings }

(* Live-extended plan, for minimized runs only: a barrier is also dead
   when every cell the phase may write is dead at the phase's checkpoint
   boundary (write-only-before-death) — the flags it would set guard
   state no minimized checkpoint ever records. Byte-identity runs must
   NOT use this plan: eliding a live barrier changes incremental
   segments by construction. *)
let workload_plan_live ~phase regions live =
  let wdecisions =
    List.map
      (fun (g, region) ->
        let live_r =
          match List.assoc_opt g live with
          | Some r -> r
          | None -> Regions.bot
        in
        let kept = Regions.meet region live_r in
        let welide = Regions.is_bot kept in
        let wreason =
          if Regions.is_bot region then
            "no may-write: barrier and flag maintenance elided"
          else if welide then
            Format.asprintf
              "write-only-before-death: may-write %a is dead at the \
               boundary (live %a): barrier elided"
              Regions.pp region Regions.pp live_r
          else
            Format.asprintf
              "may-write %a meets live %a on %a: barrier kept"
              Regions.pp region Regions.pp live_r Regions.pp kept
        in
        { wglobal = g; welide; wregion = region; wreason })
      regions
  in
  (* Decisions here never refuse and never lose precision silently —
     the per-global reasons carry the full region evidence, so the plan
     contributes no findings of its own. *)
  { wphase = phase; wdecisions; wfindings = [] }

let welided p =
  List.filter_map
    (fun d -> if d.welide then Some d.wglobal else None)
    p.wdecisions

let pp_wplan ppf p =
  Format.fprintf ppf "@[<v 2>phase %s:" p.wphase;
  List.iter
    (fun d ->
      Format.fprintf ppf "@,%-12s %s  (%s)" d.wglobal
        (if d.welide then "elide" else "keep ")
        d.wreason)
    p.wdecisions;
  List.iter (fun f -> Format.fprintf ppf "@,%a" Finding.pp f) p.wfindings;
  Format.fprintf ppf "@]"
