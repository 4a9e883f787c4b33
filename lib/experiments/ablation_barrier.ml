(* Extension (not in the paper): what does static barrier elision buy?
   Each workload runs in guarded-specialized mode twice — fully
   instrumented, then under the Barrier_elide plans (dead barriers
   rerouted to raw stores, statically discharged guards skipped) — and
   the per-phase difference is the overhead the dirty-region analysis
   removed. The Elide_oracle invariants (byte identity, I8) make the
   comparison meaningful: both runs write the same checkpoints. *)

open Ickpt_analysis

type row = {
  workload : string;
  phase : string;
  bytes : int;  (** phase checkpoint bytes (identical in both runs) *)
  instrumented_seconds : float;
  instrumented_guard_seconds : float;
  elided_seconds : float;
  elided_guard_seconds : float;
  guard_visits_instrumented : int;  (** objects the runtime guard walked *)
  guard_visits_elided : int;
  bytes_identical : bool;
}

let name = "barrier"

let title = "Ablation (extension): static write-barrier elision"

let reduction r =
  let inst = r.instrumented_seconds +. r.instrumented_guard_seconds in
  let elid = r.elided_seconds +. r.elided_guard_seconds in
  if inst <= 0.0 then 0.0 else (inst -. elid) /. inst *. 100.0

(* Best-of-[repeats] per phase, guard work counted once (it is
   deterministic across repeats). *)
let measure ?(repeats = 3) workloads =
  List.concat_map
    (fun (wname, program) ->
      let run ~elide =
        Jspec.Guard.reset_visits ();
        let reports =
          List.init repeats (fun _ ->
              Engine.analyze
                (Engine.Declared
                   { Engine.declared with
                     mode = Engine.Specialized { guard = true };
                     elide })
                program)
        in
        (reports, Jspec.Guard.nodes_visited () / repeats)
      in
      let inst_reports, inst_visits = run ~elide:false in
      let elid_reports, elid_visits = run ~elide:true in
      (* per-phase minimum of [f] across the repeated reports *)
      let best f reports =
        match reports with
        | [] -> []
        | first :: _ ->
            List.mapi
              (fun i (p : Engine.phase_report) ->
                let v =
                  List.fold_left
                    (fun acc (r : Engine.report) ->
                      min acc (f (List.nth r.Engine.phases i)))
                    (f p) reports
                in
                (p.Engine.phase, v))
              first.Engine.phases
      in
      let guard_secs (p : Engine.phase_report) =
        List.fold_left
          (fun acc s -> acc +. s.Engine.guard_seconds)
          0.0 p.Engine.stats
      in
      let inst_ckp = best Engine.phase_ckp_seconds inst_reports in
      let inst_guard = best guard_secs inst_reports in
      let elid_ckp = best Engine.phase_ckp_seconds elid_reports in
      let elid_guard = best guard_secs elid_reports in
      let phase_of (r : Engine.report) pname =
        List.find (fun (p : Engine.phase_report) -> p.Engine.phase = pname)
          r.Engine.phases
      in
      List.map
        (fun (pname, inst_s) ->
          let assoc l = List.assoc pname l in
          let inst_r = List.hd inst_reports and elid_r = List.hd elid_reports in
          let b_inst = Engine.phase_bytes (phase_of inst_r pname) in
          let b_elid = Engine.phase_bytes (phase_of elid_r pname) in
          { workload = wname;
            phase = pname;
            bytes = b_inst;
            instrumented_seconds = inst_s;
            instrumented_guard_seconds = assoc inst_guard;
            elided_seconds = assoc elid_ckp;
            elided_guard_seconds = assoc elid_guard;
            guard_visits_instrumented = inst_visits;
            guard_visits_elided = elid_visits;
            bytes_identical = b_inst = b_elid })
        inst_ckp)
    workloads

(* ---- checks + document --------------------------------------------------- *)

let checks rows =
  let open Workload in
  [ check ~label:"barrier: elision never changes checkpoint bytes"
      ~ok:(List.for_all (fun r -> r.bytes_identical) rows)
      ~detail:
        "instrumented and elided runs write identical per-phase byte \
         counts (the oracle checks full byte identity)";
    check ~label:"barrier: statically discharged guards never run"
      ~ok:(List.for_all (fun r -> r.guard_visits_elided = 0) rows)
      ~detail:
        "every phase guard is fully discharged by the dirty-region \
         analysis, so the elided runs visit zero objects in Guard.check";
    check ~label:"barrier: guard work removed on every phase"
      ~ok:
        (rows <> []
        && List.for_all (fun r -> r.guard_visits_instrumented > 0) rows)
      ~detail:
        "the instrumented runs walk the attribute tree every checkpoint; \
         elision removes all of it";
    check ~label:"barrier: measurable overhead reduction on some phase"
      ~ok:(List.exists (fun r -> reduction r > 0.0) rows)
      ~detail:
        "wall-clock construction + guard time drops on at least one \
         phase (timing-sensitive; the visit counters above are the \
         deterministic form)" ]

let columns =
  Bench_doc.
    [ column ~head:"workload" "workload" (fun r -> String r.workload);
      column ~head:"phase" "phase" (fun r -> String r.phase);
      column "bytes" (fun r -> Int r.bytes);
      column ~head:"inst ckp" "instrumented_seconds" (fun r ->
          Seconds (9, r.instrumented_seconds));
      column ~head:"inst guard" "instrumented_guard_seconds" (fun r ->
          Seconds (9, r.instrumented_guard_seconds));
      column ~head:"elid ckp" "elided_seconds" (fun r ->
          Seconds (9, r.elided_seconds));
      column ~head:"elid guard" "elided_guard_seconds" (fun r ->
          Seconds (9, r.elided_guard_seconds));
      column "guard_visits_instrumented" (fun r ->
          Int r.guard_visits_instrumented);
      column "guard_visits_elided" (fun r -> Int r.guard_visits_elided);
      column ~head:"saved %" "reduction_pct" (fun r -> Float (2, reduction r));
      column "bytes_identical" (fun r -> Bool r.bytes_identical) ]

let doc rows =
  Bench_doc.make ~bench:"barrier-elision ablation" ~title
    ~unit:"seconds (best-of-repeats per phase)" columns rows (checks rows)

let run ~scale ppf =
  let repeats = if scale >= 1.0 then 5 else 3 in
  Bench_doc.print_table ppf
    (doc (measure ~repeats (Workload.generator_programs ())))
