open Ickpt_core
open Ickpt_harness

type mode = Full | Incremental | Specialized of { guard : bool }

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Full -> "full"
    | Incremental -> "incremental"
    | Specialized _ -> "specialized")

type declared = {
  mode : mode;
  elide : bool;
  bta_min : int;
  eta_min : int;
  preflight : bool;
  measure_traversal : bool;
}

let declared =
  { mode = Incremental;
    elide = false;
    bta_min = 1;
    eta_min = 1;
    preflight = false;
    measure_traversal = false }

type parallel = { domains : int; seed_racy : bool }

type inferred = { mode : mode; elide : bool; parallel : parallel option }

let inferred = { mode = Incremental; elide = false; parallel = None }

type minimized = { guard : bool; elide : bool; seed_dead : bool }

type run =
  | Declared of declared
  | Inferred of inferred
  | Minimized of minimized

type iteration_stat = {
  bytes : int;
  seconds : float;
  traversal_seconds : float option;
  guard_seconds : float;
  recorded : int;
}

type phase_report = {
  phase : string;
  iterations : int;
  stats : iteration_stat list;
  analysis_seconds : float;
}

type subject =
  | Engine_heap of Attrs.t
  | Workload_heap of { wheap : Wheap.t; auto : Staticcheck.Auto_spec.t }

module Isch = Staticcheck.Interfere.Schedule

type par_unit = {
  pu_phase : string;
  pu_label : string;
  pu_group : int;
  pu_reads : (string * Staticcheck.Regions.t) list;
  pu_writes : (string * Staticcheck.Regions.t) list;
}

type par_report = {
  par_domains : int;
  par_schedule : Isch.t;
  par_units : par_unit list;
  par_sweeps : int;
}

type report = {
  mode : mode;
  n_stmts : int;
  base_bytes : int;
  phases : phase_report list;
  chain : Chain.t;
  subject : subject;
  env : Minic.Check.env;
  elide_plans : Staticcheck.Barrier_elide.plan list;
  par : par_report option;
}

let attrs r =
  match r.subject with
  | Engine_heap a -> a
  | Workload_heap _ ->
      invalid_arg "Engine.attrs: annotation-free run has no attribute heap"

let auto_spec r =
  match r.subject with Workload_heap { auto; _ } -> Some auto | _ -> None

let wheap r =
  match r.subject with Workload_heap { wheap; _ } -> Some wheap | _ -> None

exception Preflight_failed of Staticcheck.Spec_lint.diagnostic list

exception Verification_failed of (string * Staticcheck.Tv.verdict) list

(* The pre-flight check: every phase's declared specialization class must
   agree with the statically inferred one. Program-independent (the
   shapes are fixed by the Attrs schema), but cheap enough to run per
   engine invocation. *)
let preflight_diagnostics attrs =
  let klasses = Attrs.klasses attrs in
  List.concat_map
    (fun (phase, declared) ->
      Staticcheck.Spec_lint.check_phase ~klasses phase ~declared)
    [ (Staticcheck.Phase_model.Sea, Attrs.sea_shape attrs);
      (Staticcheck.Phase_model.Bta, Attrs.bta_shape attrs);
      (Staticcheck.Phase_model.Eta, Attrs.eta_shape attrs) ]

let preflight = preflight_diagnostics

(* Translation-validate each phase's residual code against the generic
   algorithm, going through the spec cache both for the plan and for the
   verdict: a shape verified once in this engine run (or shared between
   phases) is not re-verified. *)
let verify_phases ~cache attrs =
  List.filter_map
    (fun (name, shape) ->
      let plan = Jspec.Spec_cache.plan cache shape in
      match Jspec.Spec_cache.cached_verdict cache shape plan.Jspec.Pe.body with
      | Some true -> None
      | Some false | None ->
          (* A cached [false] is re-verified: the failure report needs the
             full verdict, and failing analyze runs are not the hot path. *)
          let v = Staticcheck.Tv.verify shape plan in
          Jspec.Spec_cache.set_verdict cache shape plan.Jspec.Pe.body
            (Staticcheck.Tv.ok v);
          if Staticcheck.Tv.ok v then None else Some (name, v))
    [ ("sea", Attrs.sea_shape attrs);
      ("bta", Attrs.bta_shape attrs);
      ("eta", Attrs.eta_shape attrs) ]

let phase_bytes p = List.fold_left (fun acc s -> acc + s.bytes) 0 p.stats

let phase_ckp_seconds p =
  List.fold_left (fun acc s -> acc +. s.seconds) 0.0 p.stats

let check_guard shape root =
  match Jspec.Guard.check shape root with
  | [] -> ()
  | v :: _ -> raise (Jspec.Guard.Violated v)

(* A generic checkpoint (Full or Incremental) through the chain. *)
let take_generic ~(mode : mode) chain roots =
  let take =
    match mode with Full -> Chain.take_full | _ -> Chain.take_incremental
  in
  let (taken : Chain.taken), seconds = Clock.time (fun () -> take chain roots) in
  { bytes = Segment.body_size taken.Chain.segment;
    seconds;
    traversal_seconds = None;
    guard_seconds = 0.0;
    recorded = taken.Chain.stats.Checkpointer.recorded }

(* A specialized checkpoint: [guard] runs first, timed on its own, then
   [record] writes the residual routines' output as the body of one
   incremental segment appended to the chain. *)
let take_specialized ~guard ~record chain roots =
  let (), guard_seconds = Clock.time guard in
  let seconds = ref 0.0 in
  let seg =
    Chain.segment ~kind:Segment.Incremental ~seq:(Chain.next_seq chain)
      (fun d _ -> seconds := snd (Clock.time (fun () -> record d)))
      roots
  in
  Chain.append chain seg;
  { bytes = Segment.body_size seg;
    seconds = !seconds;
    traversal_seconds = None;
    guard_seconds;
    recorded = -1 }

(* One checkpointing step over the attribute roots, returning the stat.
   [guard_shape] is the (possibly elision-pruned) declaration to validate
   before specialized recording; [None] means the check is statically
   discharged (or guards are off) and skipped outright. With
   [measure_traversal], the same routine then runs again on the now-clean
   heap into a byte-counting sink. *)
let checkpoint_step ~(mode : mode) ~measure_traversal ~guard_shape ~chain
    ~attrs ~spec_runner () =
  let roots = Attrs.roots attrs in
  let traverse routine stat =
    if not measure_traversal then stat
    else
      let sink = Ickpt_stream.Out_stream.sink () in
      let (), s = Clock.time (fun () -> routine sink) in
      { stat with traversal_seconds = Some s }
  in
  match mode with
  | Full ->
      traverse
        (fun sink -> Checkpointer.full_many sink roots)
        (take_generic ~mode chain roots)
  | Incremental ->
      traverse
        (fun sink -> Checkpointer.incremental_many sink roots)
        (take_generic ~mode chain roots)
  | Specialized _ ->
      let record sink = List.iter (fun r -> spec_runner sink r) roots in
      let guard () =
        Option.iter (fun shape -> List.iter (check_guard shape) roots) guard_shape
      in
      traverse record (take_specialized ~guard ~record chain roots)

(* One plan cache per engine run: the three phase shapes compile once each
   and are shared however many iterations run (cf. Jspec.Spec_cache).
   [barrier_plan] reroutes the phase's statically dead setters around the
   write barrier for the duration of the phase. *)
let run_phase ~cache ~name ~mode ~measure_traversal ~guard_shape ~barrier_plan
    ~chain ~attrs ~shape analysis =
  let spec_runner =
    match mode with
    | Specialized _ -> Jspec.Spec_cache.runner cache shape
    | Full | Incremental -> fun _ _ -> ()
  in
  let stats = ref [] in
  let ckp_total = ref 0.0 in
  let on_iteration _i =
    let stat =
      checkpoint_step ~mode ~measure_traversal ~guard_shape ~chain ~attrs
        ~spec_runner ()
    in
    ckp_total :=
      !ckp_total +. stat.seconds +. stat.guard_seconds
      +. Option.value ~default:0.0 stat.traversal_seconds;
    stats := stat :: !stats
  in
  Attrs.set_barrier_plan attrs barrier_plan;
  let iterations, total_seconds =
    Fun.protect
      ~finally:(fun () -> Attrs.set_barrier_plan attrs Attrs.no_elision)
      (fun () -> Clock.time (fun () -> analysis ~on_iteration))
  in
  { phase = name;
    iterations;
    stats = List.rev !stats;
    analysis_seconds = Float.max 0.0 (total_seconds -. !ckp_total) }

let analyze_declared (d : declared) program =
  let { mode; elide; bta_min; eta_min; preflight; measure_traversal } = d in
  let guard = match mode with Specialized { guard } -> guard | _ -> false in
  let env = Minic.Check.check program in
  let division =
    List.filter
      (fun g -> List.exists (fun (x, _) -> x = g) env.Minic.Check.global_ids)
      Minic.Gen.static_globals
  in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count program) in
  let cache = Jspec.Spec_cache.create () in
  if preflight then begin
    let ds = preflight_diagnostics attrs in
    if Staticcheck.Spec_lint.has_unsound ds then raise (Preflight_failed ds);
    match verify_phases ~cache attrs with
    | [] -> ()
    | failures -> raise (Verification_failed failures)
  end;
  let chain = Chain.create (Attrs.schema attrs) in
  (* Base checkpoint: everything is fresh, so record it all once. *)
  let base = Chain.take_full chain (Attrs.roots attrs) in
  let base_bytes = Segment.body_size base.Chain.segment in
  (* Static elision: one Barrier_elide plan per phase. The planner only
     elides sites whose may-write region is empty, so installing the
     plan cannot change checkpoint bytes — which the elision oracle
     re-verifies differentially on every workload. *)
  let elide_plan shape phase =
    if elide then Some (Staticcheck.Barrier_elide.plan ~declared:shape phase)
    else None
  in
  let phase_setup shape phase =
    let plan = elide_plan shape phase in
    let guard_shape =
      if not guard then None
      else
        match plan with
        | None -> Some shape
        | Some p -> p.Staticcheck.Barrier_elide.guard_shape
    in
    let barrier_plan =
      match plan with
      | None -> Attrs.no_elision
      | Some p ->
          let dead s = List.mem s (Staticcheck.Barrier_elide.elided p) in
          { Attrs.lists_elided = dead Staticcheck.Barrier_elide.Lists;
            bt_elided = dead Staticcheck.Barrier_elide.Bt;
            et_elided = dead Staticcheck.Barrier_elide.Et }
    in
    (plan, guard_shape, barrier_plan)
  in
  let sea_shape = Attrs.sea_shape attrs in
  let bta_shape = Attrs.bta_shape attrs in
  let eta_shape = Attrs.eta_shape attrs in
  let sea_plan, sea_guard, sea_barrier =
    phase_setup sea_shape Staticcheck.Phase_model.Sea
  in
  let bta_plan, bta_guard, bta_barrier =
    phase_setup bta_shape Staticcheck.Phase_model.Bta
  in
  let eta_plan, eta_guard, eta_barrier =
    phase_setup eta_shape Staticcheck.Phase_model.Eta
  in
  (* Bound with [let] one after another: a list literal would evaluate
     its elements in unspecified (in practice reverse) order, running
     eta before bta ever computed a binding time — and interleaving the
     chain's segments out of phase order. *)
  let sea_report =
    run_phase ~cache ~name:"sea" ~mode ~measure_traversal
      ~guard_shape:sea_guard ~barrier_plan:sea_barrier ~chain ~attrs
      ~shape:sea_shape (fun ~on_iteration ->
        Sea.run ~on_iteration ~min_iterations:1 env attrs)
  in
  let bta_report =
    run_phase ~cache ~name:"bta" ~mode ~measure_traversal
      ~guard_shape:bta_guard ~barrier_plan:bta_barrier ~chain ~attrs
      ~shape:bta_shape (fun ~on_iteration ->
        Bta_phase.run ~on_iteration ~min_iterations:bta_min ~division env
          attrs)
  in
  let eta_report =
    run_phase ~cache ~name:"eta" ~mode ~measure_traversal
      ~guard_shape:eta_guard ~barrier_plan:eta_barrier ~chain ~attrs
      ~shape:eta_shape (fun ~on_iteration ->
        Eta_phase.run ~on_iteration ~min_iterations:eta_min ~division env
          attrs)
  in
  let phases = [ sea_report; bta_report; eta_report ] in
  { mode;
    n_stmts = Attrs.n_stmts attrs;
    base_bytes;
    phases;
    chain;
    subject = Engine_heap attrs;
    env;
    elide_plans = List.filter_map Fun.id [ sea_plan; bta_plan; eta_plan ];
    par = None }

(* ---- annotation-free (inferred) runs -------------------------------------- *)

(* One checkpoint over the workload heap. Specialized mode records each
   root with the residual routine compiled for that root's inferred
   per-phase shape (all drawn from the inference run's spec cache) and
   appends the segment manually, exactly like the declared-run step. *)
let workload_checkpoint_step ~(mode : mode) ~elide ~minimize ~chain
    ~(wheap : Wheap.t) ~(auto : Staticcheck.Auto_spec.t)
    ~(pr : Staticcheck.Auto_spec.phase_result) () =
  let roots = Wheap.roots wheap in
  match mode with
  | Full | Incremental -> take_generic ~mode chain roots
  | Specialized { guard } ->
      let guard () =
        if guard then
          List.iter
            (fun (g, shape) ->
              (* A global whose barrier is elided this phase was proven
                 unwritten — its cleanliness check is statically
                 discharged, mirroring the guard pruning of declared
                 runs. *)
              if not (elide && Wheap.is_elided wheap g) then
                check_guard shape (Wheap.root_of wheap g))
            pr.Staticcheck.Auto_spec.ph_shapes
      in
      (* Minimized runs record under the pruned shapes — dirty-but-dead
         blocks demoted — while the guard above keeps validating the
         original shapes, which the dynamic heap actually conforms to. *)
      let record_shapes =
        if minimize then pr.Staticcheck.Auto_spec.ph_min_shapes
        else pr.Staticcheck.Auto_spec.ph_shapes
      in
      let record d =
        List.iter
          (fun (g, shape) ->
            let runner =
              Jspec.Spec_cache.runner auto.Staticcheck.Auto_spec.a_cache shape
            in
            runner d (Wheap.root_of wheap g))
          record_shapes
      in
      let stat = take_specialized ~guard ~record chain roots in
      (* A minimized recorder consumes only the flags of the blocks it
         keeps; a demoted block's flag would stay set and trip a later
         phase's (original-shape) cleanliness guard. Sweep the graph
         clean: the checkpoint this step took is the new baseline. *)
      if minimize then Wheap.clear_modified wheap;
      stat

(* Drive the program itself through the discovered phases: a [Setup]
   phase executes once and checkpoints; a [Round] phase checkpoints after
   every loop iteration, plus once after the final (false) guard
   evaluation — guard effects belong to the round, so they must land in a
   segment of this phase. A top-level [return] ([Session.Halted]) ends
   the run: the partial round is still checkpointed, later phases take
   zero checkpoints.

   [parallel] consumes an {!Staticcheck.Interfere} schedule: statically
   disjoint iteration strips (and whole independent phases) execute on
   their own OCaml domains against domain-local {!Dlog} tracking stores;
   the master then replays each unit's write log in schedule order — not
   completion order — through the barriered [Wheap.store], so the
   write-barrier stream, and hence the chain, is byte-identical to a
   sequential run. The observed per-domain footprints land in the
   [par_report] for the parallel oracle's dynamic disjointness check.
   [minimize] comes only from [Minimized] runs, which are Specialized and
   never parallel. *)
let analyze_inferred ~mode ~elide ~minimize ~seed_dead ~parallel program =
  let env = Minic.Check.check program in
  let auto = Staticcheck.Auto_spec.infer ~seed_dead env in
  let failures =
    List.concat_map
      (fun (pr : Staticcheck.Auto_spec.phase_result) ->
        let gate verdicts =
          List.filter_map
            (fun (g, v) ->
              if Staticcheck.Tv.ok v then None
              else
                Some
                  ( pr.Staticcheck.Auto_spec.ph
                      .Staticcheck.Phase_discover.p_name ^ "/" ^ g,
                    v ))
            verdicts
        in
        gate pr.Staticcheck.Auto_spec.ph_verdicts
        @
        if minimize then gate pr.Staticcheck.Auto_spec.ph_min_verdicts
        else [])
      auto.Staticcheck.Auto_spec.a_phases
  in
  (* The inference contract is unconditional: verified or refused. This
     gate holds in every mode — even a plain incremental run must not
     execute under shapes whose residual code failed validation. *)
  if failures <> [] then raise (Verification_failed failures);
  let sched =
    Option.map
      (fun { domains; seed_racy } ->
        Staticcheck.Interfere.schedule ~domains ~seed_racy auto)
      parallel
  in
  let wheap = Wheap.create auto.Staticcheck.Auto_spec.a_encoding in
  let chain = Chain.create (Wheap.schema wheap) in
  let base = Chain.take_full chain (Wheap.roots wheap) in
  let base_bytes = Segment.body_size base.Chain.segment in
  let session =
    Minic.Interp.Session.start ~store:(Wheap.store wheap) program
  in
  let halted = ref false in
  let elision_for (pr : Staticcheck.Auto_spec.phase_result) =
    if elide then
      (* Minimized runs use the live-extended plan: barriers on
         write-only-before-death globals are dead weight (their
         flags guard state no minimized checkpoint records).
         Byte-identity runs must keep the may-write-only plan. *)
      Staticcheck.Barrier_elide.welided
        (if minimize then pr.Staticcheck.Auto_spec.ph_live_wplan
         else pr.Staticcheck.Auto_spec.ph_wplan)
    else []
  in
  let make_step (pr : Staticcheck.Auto_spec.phase_result) stats ckp_total () =
    let stat =
      workload_checkpoint_step ~mode ~elide ~minimize ~chain ~wheap ~auto ~pr
        ()
    in
    ckp_total := !ckp_total +. stat.seconds +. stat.guard_seconds;
    stats := stat :: !stats
  in
  (* Parallel bookkeeping: every fan-out (one sweep execution, one phase
     group) is a fork instance; the observed footprints of its units are
     what the oracle's dynamic disjointness check compares. *)
  let par_units = ref [] in
  let fork = ref 0 in
  let sweeps_run = ref 0 in
  let record_unit ~phase ~label ~group d =
    par_units :=
      { pu_phase = phase; pu_label = label; pu_group = group;
        pu_reads = Dlog.observed_reads d; pu_writes = Dlog.observed_writes d }
      :: !par_units
  in
  let ws = Wheap.store wheap in
  (* One sweep fan-out: strips run their self-contained programs on fresh
     domains against a common snapshot, then the master replays the write
     logs in strip order through the (possibly elision-rerouted) barriered
     store. Strip programs cannot halt (sweep recognition refuses
     returns). *)
  let run_sweep ph_name (sw : Isch.sweep) =
    incr fork;
    incr sweeps_run;
    let fid = !fork in
    let snapshot = Dlog.snapshot_of_wheap wheap in
    let dlogs =
      sw.Isch.sw_strips
      |> List.map (fun (st : Isch.strip) ->
             Domain.spawn (fun () ->
                 let d = Dlog.create snapshot in
                 let s =
                   Minic.Interp.Session.start ~store:(Dlog.store d)
                     st.Isch.st_program
                 in
                 (match Minic.Ast.find_func st.Isch.st_program "main" with
                 | Some main -> Minic.Interp.Session.exec_block s main.Minic.Ast.f_body
                 | None -> ());
                 d))
      |> List.map Domain.join
    in
    List.iter2
      (fun (st : Isch.strip) d ->
        record_unit ~phase:ph_name
          ~label:
            (Printf.sprintf "%s[%d,%d)" sw.Isch.sw_func st.Isch.st_lo
               st.Isch.st_hi)
          ~group:fid d;
        Dlog.replay ws ~on_mark:(fun () -> ()) d)
      sw.Isch.sw_strips dlogs
  in
  (* One phase, driven by the master session. With a schedule, a round
     body walks its unit plan — serial statements on the master, sweeps
     fanned out — which is the program-order execution the sequential
     driver performs, minus the strip-internal reordering the schedule
     proved unobservable. *)
  let run_one ((pr : Staticcheck.Auto_spec.phase_result), pso) =
    let ph = pr.Staticcheck.Auto_spec.ph in
    Wheap.set_elided wheap (elision_for pr);
    let stats = ref [] in
    let ckp_total = ref 0.0 in
    let step = make_step pr stats ckp_total in
    let exec_serial b =
      try Minic.Interp.Session.exec_block session b
      with Minic.Interp.Session.Halted _ -> halted := true
    in
    let exec_body () =
      match pso with
      | Some ps when ps.Isch.ps_units <> [] ->
          List.iter
            (fun u ->
              if not !halted then
                match u with
                | Isch.Serial s -> exec_serial [ s ]
                | Isch.Par_sweep sw ->
                    run_sweep ph.Staticcheck.Phase_discover.p_name sw)
            ps.Isch.ps_units
      | _ -> exec_serial ph.Staticcheck.Phase_discover.p_body
    in
    let iterations, total_seconds =
      Clock.time (fun () ->
          Staticcheck.Phase_discover.drive ph
            ~halted:(fun () -> !halted)
            ~exec:exec_body
            ~eval:(Minic.Interp.Session.eval session)
            ~step)
    in
    Wheap.set_elided wheap [];
    { phase = ph.Staticcheck.Phase_discover.p_name;
      iterations;
      stats = List.rev !stats;
      analysis_seconds = Float.max 0.0 (total_seconds -. !ckp_total) }
  in
  (* A parallel phase group: each member phase runs to completion on its
     own domain (its own session over the blanked program, master locals
     injected), then the master replays member logs in schedule order,
     checkpointing at each mark under that member's elision set and
     carrying back the locals the member may write. A member that halted
     discards every later member's work — the sequential run would never
     have executed it. *)
  let zero_phase (pr : Staticcheck.Auto_spec.phase_result) =
    { phase = pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_name;
      iterations = 0; stats = []; analysis_seconds = 0.0 }
  in
  let blank_program =
    lazy
      { program with
        Minic.Ast.funcs =
          List.map
            (fun f ->
              if f.Minic.Ast.f_name = "main" then
                { f with Minic.Ast.f_body = [] }
              else f)
            program.Minic.Ast.funcs }
  in
  let main_local_names =
    match Minic.Ast.find_func program "main" with
    | Some f -> List.map (fun d -> d.Minic.Ast.v_name) f.Minic.Ast.f_locals
    | None -> []
  in
  let run_group members =
    if !halted then List.map (fun (pr, _) -> zero_phase pr) members
    else begin
      incr fork;
      let fid = !fork in
      let snapshot = Dlog.snapshot_of_wheap wheap in
      let locals0 = Minic.Interp.Session.locals session in
      let results, fan_seconds =
        Clock.time (fun () ->
            members
            |> List.map
                 (fun ((pr : Staticcheck.Auto_spec.phase_result), _) ->
                   Domain.spawn (fun () ->
                       let ph = pr.Staticcheck.Auto_spec.ph in
                       let d = Dlog.create snapshot in
                       let s =
                         Minic.Interp.Session.start ~store:(Dlog.store d)
                           (Lazy.force blank_program)
                       in
                       List.iter
                         (fun (n, v) -> Minic.Interp.Session.set_local s n v)
                         locals0;
                       let halted' = ref false in
                       let exec () =
                         try
                           Minic.Interp.Session.exec_block s
                             ph.Staticcheck.Phase_discover.p_body
                         with Minic.Interp.Session.Halted _ ->
                           halted' := true
                       in
                       let rounds =
                         Staticcheck.Phase_discover.drive ph
                           ~halted:(fun () -> !halted')
                           ~exec
                           ~eval:(Minic.Interp.Session.eval s)
                           ~step:(fun () -> Dlog.mark d)
                       in
                       (d, rounds, !halted', Minic.Interp.Session.locals s)))
            |> List.map Domain.join)
      in
      let fan = ref fan_seconds in
      List.map2
        (fun ((pr : Staticcheck.Auto_spec.phase_result), pso)
             (d, rounds, h, finals) ->
          let ph = pr.Staticcheck.Auto_spec.ph in
          let name = ph.Staticcheck.Phase_discover.p_name in
          if !halted then zero_phase pr
          else begin
            Wheap.set_elided wheap (elision_for pr);
            let stats = ref [] in
            let ckp_total = ref 0.0 in
            let step = make_step pr stats ckp_total in
            record_unit ~phase:name ~label:("phase:" ^ name) ~group:fid d;
            let (), secs =
              Clock.time (fun () -> Dlog.replay ws ~on_mark:step d)
            in
            (match pso with
            | Some (ps : Isch.phase_sched) ->
                let pairs =
                  try
                    List.combine ph.Staticcheck.Phase_discover.p_lifted
                      main_local_names
                  with Invalid_argument _ -> []
                in
                List.iter
                  (fun (lifted, orig) ->
                    let written =
                      match
                        List.assoc_opt lifted
                          ps.Isch.ps_foot.Staticcheck.Interfere.fp_writes
                      with
                      | Some r -> not (Staticcheck.Regions.is_bot r)
                      | None -> false
                    in
                    if written then
                      match List.assoc_opt orig finals with
                      | Some v ->
                          Minic.Interp.Session.set_local session orig v
                      | None -> ())
                  pairs
            | None -> ());
            if h then halted := true;
            Wheap.set_elided wheap [];
            let own = !fan in
            fan := 0.0;
            { phase = name;
              iterations = rounds;
              stats = List.rev !stats;
              analysis_seconds =
                Float.max 0.0 (own +. secs -. !ckp_total) }
          end)
        members results
    end
  in
  (* Pair phases with their schedule entries and split into maximal runs
     of one group id; singleton runs take the sequential driver. *)
  let paired =
    match sched with
    | None ->
        List.map (fun pr -> (pr, None)) auto.Staticcheck.Auto_spec.a_phases
    | Some sc ->
        List.map2
          (fun pr ps -> (pr, Some ps))
          auto.Staticcheck.Auto_spec.a_phases sc.Isch.sc_phases
  in
  let runs =
    let rev_runs =
      List.fold_left
        (fun acc ((_, pso) as x) ->
          match (acc, pso) with
          | (((_, Some prev) :: _) as cur) :: rest, Some (ps : Isch.phase_sched)
            when prev.Isch.ps_group = ps.Isch.ps_group ->
              (x :: cur) :: rest
          | _ -> [ x ] :: acc)
        [] paired
    in
    List.rev_map List.rev rev_runs
  in
  let phases =
    List.concat_map
      (fun members ->
        match members with
        | [ one ] -> [ run_one one ]
        | many -> run_group many)
      runs
  in
  let par =
    Option.map
      (fun (sc : Isch.t) ->
        { par_domains = sc.Isch.sc_domains;
          par_schedule = sc;
          par_units = List.rev !par_units;
          par_sweeps = !sweeps_run })
      sched
  in
  { mode;
    n_stmts = Minic.Ast.stmt_count program;
    base_bytes;
    phases;
    chain;
    subject = Workload_heap { wheap; auto };
    env;
    elide_plans = [];
    par }

let analyze run program =
  match run with
  | Declared d -> analyze_declared d program
  | Inferred { mode; elide; parallel } ->
      analyze_inferred ~mode ~elide ~minimize:false ~seed_dead:false ~parallel
        program
  | Minimized { guard; elide; seed_dead } ->
      analyze_inferred ~mode:(Specialized { guard }) ~elide ~minimize:true
        ~seed_dead ~parallel:None program

let recover_annotations report =
  match Chain.recover report.chain with
  | Error e -> failwith ("recover_annotations: " ^ e)
  | Ok (_heap, roots) ->
      let open Ickpt_runtime in
      let child_exn o i =
        match o.Model.children.(i) with
        | Some c -> c
        | None -> failwith "recover_annotations: missing child"
      in
      let chain_to_list head =
        let rec go acc = function
          | None -> List.rev acc
          | Some (o : Model.obj) -> go (o.Model.ints.(0) :: acc) o.Model.children.(0)
        in
        go [] head
      in
      List.map
        (fun attr ->
          let se = child_exn attr 0 in
          let bt = (child_exn (child_exn attr 1) 0).Model.ints.(0) in
          let et = (child_exn (child_exn attr 2) 0).Model.ints.(0) in
          let reads = chain_to_list se.Model.children.(0) in
          let writes = chain_to_list se.Model.children.(1) in
          (bt, et, reads, writes))
        roots
