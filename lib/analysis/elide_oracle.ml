open Ickpt_core

type family =
  | Elision
  | Inferred_elision
  | Liveness of { seed_unsound : bool }
  | Parallel of { domains : int; seed_racy : bool }

type check =
  | Identity
  | Containment
  | Restore
  | Resume_return
  | Resume_state
  | Resume_crash
  | Chain
  | Disjointness

let check_name = function
  | Identity -> "identity"
  | Containment -> "containment"
  | Restore -> "restore"
  | Resume_return -> "resume-return"
  | Resume_state -> "resume-state"
  | Resume_crash -> "resume-crash"
  | Chain -> "chain"
  | Disjointness -> "disjointness"

type failure = { check : check; at : string; detail : string }

type tallies = {
  segments : int;
  dirty_cells : int;
  epochs : int;
  live_cells : int;
  resumes : int;
  reads_checked : int;
  baseline_bytes : int;
  minimized_bytes : int;
  domains : int;
  par_units : int;
  par_sweeps : int;
  pairs_checked : int;
}

let no_tallies =
  { segments = 0;
    dirty_cells = 0;
    epochs = 0;
    live_cells = 0;
    resumes = 0;
    reads_checked = 0;
    baseline_bytes = 0;
    minimized_bytes = 0;
    domains = 0;
    par_units = 0;
    par_sweeps = 0;
    pairs_checked = 0 }

type outcome = {
  workload : string;
  family : family;
  seeded : bool;
  tallies : tallies;
  failures : failure list;
  reports : (Engine.run * Engine.report) list;
}

let ok o = o.failures = []

(* ---- plumbing shared by every family ---------------------------------------

   The families slice chains and attribute segments to phases the same
   way and report into one failure list; they diverge only in their
   engine runs and verdict predicates. *)

let fail sink check at fmt =
  Format.kasprintf (fun detail -> sink := { check; at; detail } :: !sink) fmt

let chains_identical a b =
  let key (s : Segment.t) =
    (s.Segment.kind, s.Segment.seq, s.Segment.roots, s.Segment.body)
  in
  List.map key (Chain.segments a) = List.map key (Chain.segments b)

let identity sink ~at (a : Engine.report) (b : Engine.report) what =
  if not (chains_identical a.Engine.chain b.Engine.chain) then
    fail sink Identity at "%s chains differ" what

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let split_at n segs =
  let rec go n segs =
    if n = 0 then ([], segs)
    else
      match segs with
      | [] -> ([], [])
      | s :: rest ->
          let mine, others = go (n - 1) rest in
          (s :: mine, others)
  in
  go n segs

let split_chain (c : Chain.t) =
  let segs = Chain.segments c in
  ( List.filter (fun (s : Segment.t) -> s.Segment.kind = Segment.Full) segs,
    List.filter
      (fun (s : Segment.t) -> s.Segment.kind = Segment.Incremental)
      segs )

let bytes segs =
  List.fold_left (fun acc s -> acc + Segment.body_size s) 0 segs

(* Walk an instrumented run's incremental segments positionally — the
   phases ran in order, one segment per iteration, after the single full
   base segment — decoding each segment's records for the per-phase
   verdict closure [on_phase] returns. Counts (segments, records)
   decoded. *)
let attribute_records ~schema chain phases ~iterations ~on_phase =
  let segments = ref 0 and records = ref 0 in
  let rec go segs = function
    | [] -> ()
    | p :: rest ->
        let mine, others = split_at (iterations p) segs in
        let on_record = on_phase p in
        List.iter
          (fun (s : Segment.t) ->
            incr segments;
            List.iter
              (fun r ->
                incr records;
                on_record r)
              (Restore.records_of_body schema s.Segment.body))
          mine;
        go others rest
  in
  go (snd (split_chain chain)) phases;
  (!segments, !records)

(* The id → (site, sid) map of the attribute tree: which statically
   analyzed site each heap object's dirty flag stands for. VarRef chain
   nodes are allocated dynamically and are not in the map; they belong
   to the se-lists site of whatever SEEntry points at them. *)
type owner = Spine | Site of Staticcheck.Barrier_elide.site

let owner_map attrs =
  let tbl = Hashtbl.create 256 in
  let id (o : Ickpt_runtime.Model.obj) =
    o.Ickpt_runtime.Model.info.Ickpt_runtime.Model.id
  in
  let child (o : Ickpt_runtime.Model.obj) i =
    match o.Ickpt_runtime.Model.children.(i) with
    | Some c -> c
    | None -> invalid_arg "Elide_oracle: attribute spine child missing"
  in
  for sid = 0 to Attrs.n_stmts attrs - 1 do
    let attr = Attrs.attr attrs sid in
    Hashtbl.replace tbl (id attr) (Spine, sid);
    Hashtbl.replace tbl (id (child attr 1)) (Spine, sid);
    Hashtbl.replace tbl (id (child attr 2)) (Spine, sid);
    Hashtbl.replace tbl
      (id (Attrs.se_entry attrs sid))
      (Site Staticcheck.Barrier_elide.Lists, sid);
    Hashtbl.replace tbl
      (id (Attrs.bt_obj attrs sid))
      (Site Staticcheck.Barrier_elide.Bt, sid);
    Hashtbl.replace tbl
      (id (Attrs.et_obj attrs sid))
      (Site Staticcheck.Barrier_elide.Et, sid)
  done;
  tbl

let phase_of_name = function
  | "sea" -> Staticcheck.Phase_model.Sea
  | "bta" -> Staticcheck.Phase_model.Bta
  | "eta" -> Staticcheck.Phase_model.Eta
  | p -> invalid_arg ("Elide_oracle: unknown phase " ^ p)

(* Check invariant I8 against the incremental instrumented run: every
   record in a phase's segments must be a cell of a site region the
   phase may write. *)
let check_containment sink (report : Engine.report) =
  let attrs = Engine.attrs report in
  let schema = Attrs.schema attrs in
  let owners = owner_map attrs in
  let varref_kid =
    (Ickpt_runtime.Schema.find_name schema "VarRef").Ickpt_runtime.Model.kid
  in
  let on_phase (p : Engine.phase_report) =
    let phase = phase_of_name p.Engine.phase in
    let region site =
      Staticcheck.Barrier_elide.site_region_for
        ~n_stmts:(Attrs.n_stmts attrs) phase site
    in
    fun (r : Restore.record) ->
      let add site sid detail =
        fail sink Containment
          (Printf.sprintf "%s %s sid %d" p.Engine.phase site sid)
          "%s" detail
      in
      match Hashtbl.find_opt owners r.Restore.rec_id with
      | Some (Spine, sid) ->
          add "spine" sid
            "attribute-tree spine object dirtied; no phase may modify the \
             spine"
      | Some (Site site, sid) ->
          if not (Staticcheck.Regions.mem sid (region site)) then
            add
              (Staticcheck.Barrier_elide.site_name site)
              sid
              (Format.asprintf
                 "dirty cell %d outside static may-write region %a" sid
                 Staticcheck.Regions.pp (region site))
      | None ->
          if r.Restore.rec_kid = varref_kid then begin
            if
              Staticcheck.Regions.is_bot
                (region Staticcheck.Barrier_elide.Lists)
            then
              add "se-lists" (-1)
                "VarRef dirtied in a phase whose se-lists may-write region \
                 is empty"
          end
          else
            add "?" (-1)
              (Printf.sprintf "record for unknown object id %d (class id %d)"
                 r.Restore.rec_id r.Restore.rec_kid)
  in
  attribute_records ~schema report.Engine.chain report.Engine.phases
    ~iterations:(fun p -> p.Engine.iterations)
    ~on_phase

(* ---- annotation-free (inferred) runs -------------------------------------- *)

(* I8 over the workload heap: every record of the instrumented
   incremental run, attributed positionally to its discovered phase,
   must be a block (or scalar) the phase's inferred may-write region
   meets. Headers never change after the base checkpoint, so a dirty
   header is always a violation. *)
let check_containment_inferred sink (report : Engine.report) =
  let wheap =
    match Engine.wheap report with
    | Some w -> w
    | None -> invalid_arg "Elide_oracle: not an inferred run"
  in
  let auto = Option.get (Engine.auto_spec report) in
  let schema = Wheap.schema wheap in
  let on_phase
      ( (p : Engine.phase_report),
        (pr : Staticcheck.Auto_spec.phase_result) ) =
    let region g =
      match List.assoc_opt g pr.Staticcheck.Auto_spec.ph_regions with
      | Some r -> r
      | None -> Staticcheck.Regions.bot
    in
    fun (r : Restore.record) ->
      let add site sid detail =
        fail sink Containment
          (Printf.sprintf "%s %s sid %d" p.Engine.phase site sid)
          "%s" detail
      in
      match Wheap.owner_of wheap r.Restore.rec_id with
      | Some (g, Wheap.Scalar_slot) ->
          if Staticcheck.Regions.is_bot (region g) then
            add g 0
              "scalar dirtied in a phase whose may-write region for it is \
               empty"
      | Some (g, Wheap.Header) ->
          add g (-1)
            "array header dirtied; headers are immutable after the base \
             checkpoint"
      | Some (g, Wheap.Block { lo; hi }) ->
          if
            Staticcheck.Regions.is_bot
              (Staticcheck.Regions.meet (region g)
                 (Staticcheck.Regions.interval lo hi))
          then
            add g lo
              (Format.asprintf
                 "block [%d..%d] dirtied outside static may-write region %a"
                 lo hi Staticcheck.Regions.pp (region g))
      | None ->
          add "?" (-1)
            (Printf.sprintf "record for unknown object id %d (class id %d)"
               r.Restore.rec_id r.Restore.rec_kid)
  in
  attribute_records ~schema report.Engine.chain
    (List.combine report.Engine.phases auto.Staticcheck.Auto_spec.a_phases)
    ~iterations:(fun ((p : Engine.phase_report), _) -> p.Engine.iterations)
    ~on_phase

let spec_guarded = Engine.Specialized { guard = true }

(* The four engine runs of an elision family — instrumented vs elided, in
   incremental and guarded-specialized modes — plus one containment
   decode of the instrumented incremental run. *)
let elision sink ~analyze ~run_of ~containment =
  let inst_inc = analyze (run_of Engine.Incremental false) in
  let elid_inc = analyze (run_of Engine.Incremental true) in
  let inst_spec = analyze (run_of spec_guarded false) in
  let elid_spec = analyze (run_of spec_guarded true) in
  identity sink ~at:"incremental" inst_inc elid_inc
    "instrumented and elided incremental";
  identity sink ~at:"specialized" inst_spec elid_spec
    "instrumented and elided specialized";
  identity sink ~at:"cross-mode" inst_inc inst_spec
    "instrumented incremental and specialized";
  let segments, dirty_cells = containment sink inst_inc in
  { no_tallies with segments; dirty_cells }

(* ---- restore-equivalence for minimized checkpoints ------------------------- *)

(* Minimized checkpoints are NOT byte-identical to unminimized ones by
   construction — dropping dead dirty blocks is the whole point. Their
   soundness contract is semantic: restoring any epoch of the minimized
   chain must agree with the unminimized restore on every cell the
   static liveness marks live at that epoch's boundary, and a run
   resumed from the minimized restore must behave identically (return
   value, final live state). Containment closes the loop on the static
   analysis itself: everything the resumed run reads before writing must
   be inside the boundary's live region. *)

(* A restored chain prefix flattened back to plain global values in
   declaration order; a scalar is a one-cell array. *)
type image = (string * int array) list

let image_of_prefix (encoding : Staticcheck.Shape_infer.encoding) segs : image
    =
  let schema = encoding.Staticcheck.Shape_infer.schema in
  let roots =
    match segs with
    | (s : Segment.t) :: _ -> s.Segment.roots
    | [] -> invalid_arg "Elide_oracle: empty chain prefix"
  in
  let _, objs = Restore.of_segments schema segs ~roots in
  List.map2
    (fun (name, slot) (o : Ickpt_runtime.Model.obj) ->
      match slot with
      | Staticcheck.Shape_infer.Scalar _ ->
          (name, [| o.Ickpt_runtime.Model.ints.(0) |])
      | Staticcheck.Shape_infer.Array { blocks; length; _ } ->
          let a = Array.make length 0 in
          List.iteri
            (fun j (b : Staticcheck.Shape_infer.block) ->
              match o.Ickpt_runtime.Model.children.(j) with
              | Some blk ->
                  let lo = b.Staticcheck.Shape_infer.b_lo in
                  Array.blit blk.Ickpt_runtime.Model.ints 0 a lo
                    (b.Staticcheck.Shape_infer.b_hi - lo + 1)
              | None -> raise (Restore.Error "restored array block missing"))
            blocks;
          (name, a))
    encoding.Staticcheck.Shape_infer.slots objs

(* A plain concrete store with read/write tracking: once [ts_tracking] is
   switched on (at the resume point), every cell read before this run
   writes it lands in [ts_rbw] — the dynamic reads-before-write set the
   containment check compares against the static live region. Scalars
   are one-cell arrays, as in {!image}. *)
type tstore = {
  ts_cells : (string, int array) Hashtbl.t;
  mutable ts_tracking : bool;
  ts_written : (string * int, unit) Hashtbl.t;
  ts_rbw : (string * int, unit) Hashtbl.t;
}

let tstore_create (encoding : Staticcheck.Shape_infer.encoding) =
  let inits =
    List.map
      (fun (d : Minic.Ast.var_decl) -> (d.Minic.Ast.v_name, d.Minic.Ast.v_init))
      encoding.Staticcheck.Shape_infer.enc_env.Minic.Check.program
        .Minic.Ast.globals
  in
  let ts =
    { ts_cells = Hashtbl.create 8;
      ts_tracking = false;
      ts_written = Hashtbl.create 64;
      ts_rbw = Hashtbl.create 64 }
  in
  List.iter
    (fun (name, slot) ->
      Hashtbl.replace ts.ts_cells name
        (match slot with
        | Staticcheck.Shape_infer.Scalar _ -> [| List.assoc name inits |]
        | Staticcheck.Shape_infer.Array { length; _ } -> Array.make length 0))
    encoding.Staticcheck.Shape_infer.slots;
  ts

let tstore_store ts =
  let get g i =
    if ts.ts_tracking && not (Hashtbl.mem ts.ts_written (g, i)) then
      Hashtbl.replace ts.ts_rbw (g, i) ();
    (Hashtbl.find ts.ts_cells g).(i)
  in
  let set g i v =
    if ts.ts_tracking then Hashtbl.replace ts.ts_written (g, i) ();
    (Hashtbl.find ts.ts_cells g).(i) <- v
  in
  { Minic.Interp.gs_get = (fun x -> get x 0);
    gs_set = (fun x v -> set x 0 v);
    gs_get_cell = get;
    gs_set_cell = set;
    gs_length = (fun x -> Array.length (Hashtbl.find ts.ts_cells x)) }

(* Overwrite the whole store with a restored image — the restore itself,
   not program writes: tracking state is untouched. *)
let tstore_overwrite ts (img : image) =
  List.iter
    (fun (g, a) -> Array.blit a 0 (Hashtbl.find ts.ts_cells g) 0 (Array.length a))
    img

let tstore_image ts (encoding : Staticcheck.Shape_infer.encoding) : image =
  List.map
    (fun (name, _) -> (name, Array.copy (Hashtbl.find ts.ts_cells name)))
    encoding.Staticcheck.Shape_infer.slots

(* Re-drive the program through its discovered phase structure against
   [store], with the engine's own checkpoint placement
   ([Phase_discover.drive]). [on_checkpoint k] fires where checkpoint [k]
   would be taken. Returns (checkpoints, returned, return value). *)
let drive ~(phases : Staticcheck.Auto_spec.phase_result list) ~store program
    ~on_checkpoint =
  let session = Minic.Interp.Session.start ~store program in
  let halted = ref false in
  let ret = ref None in
  let k = ref 0 in
  let step () =
    on_checkpoint !k;
    incr k
  in
  List.iter
    (fun (pr : Staticcheck.Auto_spec.phase_result) ->
      let ph = pr.Staticcheck.Auto_spec.ph in
      let exec () =
        try
          Minic.Interp.Session.exec_block session
            ph.Staticcheck.Phase_discover.p_body
        with Minic.Interp.Session.Halted v ->
          halted := true;
          ret := v
      in
      ignore
        (Staticcheck.Phase_discover.drive ph
           ~halted:(fun () -> !halted)
           ~exec
           ~eval:(Minic.Interp.Session.eval session)
           ~step))
    phases;
  (!k, !halted, !ret)

let liveness sink ~analyze ~seed_unsound program =
  let baseline =
    analyze (Engine.Inferred { Engine.inferred with mode = spec_guarded })
  in
  let minimized =
    analyze
      (Engine.Minimized { guard = true; elide = true; seed_dead = seed_unsound })
  in
  let auto = Option.get (Engine.auto_spec baseline) in
  let auto_m = Option.get (Engine.auto_spec minimized) in
  let enc = auto.Staticcheck.Auto_spec.a_encoding in
  let enc_m = auto_m.Staticcheck.Auto_spec.a_encoding in
  let live = auto.Staticcheck.Auto_spec.a_live in
  let live_cells = ref 0 in
  let reads_checked = ref 0 in
  let resumes = ref 0 in
  let fail e check fmt =
    fail sink check (if e < 0 then "run" else Printf.sprintf "epoch %d" e) fmt
  in
  let full_b, inc_b = split_chain baseline.Engine.chain in
  let full_m, inc_m = split_chain minimized.Engine.chain in
  let epochs_b = List.length inc_b in
  let epochs_m = List.length inc_m in
  if epochs_b <> epochs_m then
    fail (-1) Chain
      "baseline took %d incremental checkpoint(s), minimized %d: the runs \
       diverged before any restore"
      epochs_b epochs_m;
  let epochs = min epochs_b epochs_m in
  (* Epoch -> the phase whose boundary covers it, positionally (round
     boundaries are loop-head fixpoints, so every iteration of a round
     shares the phase's boundary soundly). *)
  let epoch_pr =
    Array.of_list
      (List.concat_map
         (fun ((p : Engine.phase_report),
               (pr : Staticcheck.Auto_spec.phase_result)) ->
           List.init p.Engine.iterations (fun _ -> pr))
         (List.combine baseline.Engine.phases
            auto.Staticcheck.Auto_spec.a_phases))
  in
  (* Every cell of two images of one encoding, pairwise. *)
  let iter_cells f (a : image) (b : image) =
    List.iter2
      (fun (g, va) (g', vb) ->
        assert (g = g');
        Array.iteri (fun i x -> f g i x vb.(i)) va)
      a b
  in
  let cell_name g i =
    match List.assoc g enc.Staticcheck.Shape_infer.slots with
    | Staticcheck.Shape_infer.Scalar _ -> g
    | Staticcheck.Shape_infer.Array _ -> Printf.sprintf "%s[%d]" g i
  in
  let cell_live boundary g i =
    match List.assoc_opt g boundary with
    | Some r -> Staticcheck.Regions.mem i r
    | None -> false
  in
  (* Reference run: the same driver, no switch — what a never-crashed
     execution observes on this store implementation. *)
  let ref_ts = tstore_create enc in
  let ref_epochs, ref_halted, ref_ret =
    drive ~phases:auto.Staticcheck.Auto_spec.a_phases
      ~store:(tstore_store ref_ts) program ~on_checkpoint:(fun _ -> ())
  in
  let ref_final = tstore_image ref_ts enc in
  if ref_epochs <> epochs_b then
    fail (-1) Chain
      "re-driven reference run took %d checkpoint(s), engine run %d"
      ref_epochs epochs_b;
  for e = 0 to epochs - 1 do
    let pr = epoch_pr.(e) in
    let boundary =
      Staticcheck.Live.boundary live
        pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_index
    in
    let prefix_b = full_b @ take (e + 1) inc_b in
    let prefix_m = full_m @ take (e + 1) inc_m in
    let img_b = image_of_prefix enc prefix_b in
    let img_m = image_of_prefix enc_m prefix_m in
    (* 1. Restored live cells must agree with the unminimized restore. *)
    iter_cells
      (fun g i vb vm ->
        if cell_live boundary g i then begin
          incr live_cells;
          if vb <> vm then
            fail e Restore
              "%s live at the %s boundary restores to %d minimized vs %d \
               baseline"
              (cell_name g i)
              pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_name
              vm vb
        end)
      img_b img_m;
    (* 2. Resume from the minimized restore and run to completion. *)
    let ts = tstore_create enc in
    let switched = ref false in
    let res =
      (* A runtime error after the switch is itself a divergence (the
         reference run completed): report it, don't propagate. *)
      try
        Some
          (drive ~phases:auto.Staticcheck.Auto_spec.a_phases
             ~store:(tstore_store ts) program ~on_checkpoint:(fun k ->
               if k = e then begin
                 tstore_overwrite ts img_m;
                 ts.ts_tracking <- true;
                 switched := true
               end))
      with Minic.Interp.Runtime_error msg ->
        fail e Resume_crash
          "resumed run raised a runtime error the reference run did not: %s"
          msg;
        None
    in
    incr resumes;
    (match res with
    | None -> ()
    | Some (_, res_halted, res_ret) ->
    if not !switched then
      fail e Chain "resume driver never reached checkpoint %d" e
    else begin
      (* 2a. Observable output: a return executed after the switch must
         produce the reference value. *)
      if res_halted <> ref_halted then
        fail e Resume_return
          "resumed run %s while the reference run %s"
          (if res_halted then "returned" else "fell off main")
          (if ref_halted then "returned" else "fell off main")
      else if res_halted && res_ret <> ref_ret then
        fail e Resume_return "resumed run returned %s, reference %s"
          (match res_ret with Some v -> string_of_int v | None -> "(none)")
          (match ref_ret with Some v -> string_of_int v | None -> "(none)");
      (* 2b. Final state on cells that matter: live at the switch
         boundary, or written after the switch. Dead unwritten cells may
         legitimately hold stale restored values. *)
      let final = tstore_image ts enc in
      let relevant g i =
        cell_live boundary g i || Hashtbl.mem ts.ts_written (g, i)
      in
      iter_cells
        (fun g i vr vf ->
          if relevant g i && vr <> vf then
            fail e Resume_state "final %s is %d resumed vs %d reference"
              (cell_name g i) vf vr)
        ref_final final;
      (* 3. Containment: everything the resumed run read before writing
         must be inside the static live region — the liveness dual of
         invariant I8. *)
      Hashtbl.iter
        (fun (g, i) () ->
          incr reads_checked;
          if not (cell_live boundary g i) then
            fail e Containment
              "resumed run read %s[%d] before writing it, but the %s \
               boundary's live region excludes it"
              g i
              pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_name)
        ts.ts_rbw
    end)
  done;
  { no_tallies with
    epochs;
    live_cells = !live_cells;
    resumes = !resumes;
    reads_checked = !reads_checked;
    baseline_bytes = bytes inc_b;
    minimized_bytes = bytes inc_m }

(* ---- parallel execution ---------------------------------------------------- *)

(* Parallel runs promise byte-identity with the sequential chain — the
   replay-in-schedule-order construction guarantees it whenever the units'
   footprints were really disjoint. But an overlap that writes the same
   value keeps the chain identical while the run is still racy (the
   seeded self-test demonstrates exactly this), so identity alone cannot
   gate: the oracle also intersects the footprints each domain actually
   observed, pairwise within every fork group — the parallel dual of
   invariant I8 (static disjointness ⊇ dynamic disjointness). *)

(* Pairwise observed-footprint disjointness inside each fork group —
   units in different groups ran sequentially and may overlap freely. *)
let observed_conflicts sink ~mode (rep : Engine.par_report) =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (u : Engine.par_unit) ->
      let l =
        Option.value ~default:[] (Hashtbl.find_opt groups u.Engine.pu_group)
      in
      Hashtbl.replace groups u.Engine.pu_group (u :: l))
    rep.Engine.par_units;
  let foot (u : Engine.par_unit) =
    { Staticcheck.Interfere.fp_reads = u.Engine.pu_reads;
      fp_writes = u.Engine.pu_writes }
  in
  let pairs = ref 0 in
  Hashtbl.iter
    (fun group members ->
      let members = Array.of_list (List.rev members) in
      for i = 0 to Array.length members - 1 do
        for j = i + 1 to Array.length members - 1 do
          incr pairs;
          match
            Staticcheck.Interfere.footprint_conflict
              (foot members.(i))
              (foot members.(j))
          with
          | None -> ()
          | Some (g, ra, rb) ->
              fail sink Disjointness
                (Printf.sprintf "%s fork %d" mode group)
                "%s || %s: observed footprints meet on %s: %a vs %a"
                members.(i).Engine.pu_label members.(j).Engine.pu_label g
                Staticcheck.Regions.pp ra Staticcheck.Regions.pp rb
        done
      done)
    groups;
  !pairs

(* Sequential vs parallel in each mode: chain identity, then the
   observed-footprint check over the parallel run's fork groups. *)
let parallel sink ~analyze ~domains ~seed_racy =
  let compare mode name =
    let seq = analyze (Engine.Inferred { Engine.inferred with mode }) in
    let par =
      analyze
        (Engine.Inferred
           { mode; elide = false; parallel = Some { domains; seed_racy } })
    in
    identity sink ~at:name seq par "sequential and parallel";
    let rep = Option.get par.Engine.par in
    (rep, observed_conflicts sink ~mode:name rep)
  in
  let rep_inc, pairs_inc = compare Engine.Incremental "incremental" in
  let _, pairs_spec = compare spec_guarded "specialized" in
  ( rep_inc.Engine.par_schedule.Engine.Isch.sc_seeded,
    { no_tallies with
      domains = rep_inc.Engine.par_domains;
      par_units = List.length rep_inc.Engine.par_units;
      par_sweeps = rep_inc.Engine.par_sweeps;
      pairs_checked = pairs_inc + pairs_spec } )

(* ---- the runner ----------------------------------------------------------- *)

let run ~name family program =
  (* Each family asks for each of its distinct runs once, and every check
     reads the report it got. *)
  let reports = ref [] in
  let analyze r =
    let report = Engine.analyze r program in
    reports := (r, report) :: !reports;
    report
  in
  let sink = ref [] in
  let seeded, tallies =
    match family with
    | Elision ->
        ( false,
          elision sink ~analyze ~containment:check_containment
            ~run_of:(fun mode elide ->
              Engine.Declared { Engine.declared with mode; elide }) )
    | Inferred_elision ->
        ( false,
          elision sink ~analyze ~containment:check_containment_inferred
            ~run_of:(fun mode elide ->
              Engine.Inferred { Engine.inferred with mode; elide }) )
    | Liveness { seed_unsound } ->
        (seed_unsound, liveness sink ~analyze ~seed_unsound program)
    | Parallel { domains; seed_racy } ->
        parallel sink ~analyze ~domains ~seed_racy
  in
  { workload = name;
    family;
    seeded;
    tallies;
    failures = List.rev !sink;
    reports = List.rev !reports }

let findings o =
  let scope =
    match o.family with
    | Elision -> "elide-oracle"
    | Inferred_elision -> "infer-oracle"
    | Liveness _ -> "live-oracle"
    | Parallel _ -> "par-oracle"
  in
  List.map
    (fun f ->
      { Staticcheck.Finding.severity = Staticcheck.Finding.Error;
        scope;
        path = check_name f.check ^ "@" ^ f.at;
        reason = f.detail })
    o.failures

let pp ppf o =
  let t = o.tallies in
  Format.fprintf ppf "@[<v 2>%s%s: %s" o.workload
    (if o.seeded then " (seeded)" else "")
    (if ok o then "ok" else "FAILED");
  (match o.family with
  | Elision | Inferred_elision ->
      Format.fprintf ppf
        "@,chains byte-compared across elision and across modes@,I8: %d \
         dirty cell(s) over %d segment(s)"
        t.dirty_cells t.segments
  | Liveness _ ->
      Format.fprintf ppf
        "@,%d epoch(s): %d live cell(s) restore-checked, %d resume(s), %d \
         read(s) containment-checked"
        t.epochs t.live_cells t.resumes t.reads_checked;
      Format.fprintf ppf "@,incremental bytes: %d baseline, %d minimized"
        t.baseline_bytes t.minimized_bytes
  | Parallel _ ->
      Format.fprintf ppf
        "@,%d domain(s): %d parallel unit(s), %d sweep fan-out(s)@,chains \
         byte-compared with sequential in both modes@,observed \
         disjointness: %d unit pair(s) checked"
        t.domains t.par_units t.par_sweeps t.pairs_checked);
  List.iter
    (fun f ->
      Format.fprintf ppf "@,[%s] %s: %s" f.at (check_name f.check) f.detail)
    o.failures;
  Format.fprintf ppf "@]"

let builtin_workloads () =
  [ ("image", Minic.Gen.image_program ());
    ("small", Minic.Gen.small_program ()) ]
