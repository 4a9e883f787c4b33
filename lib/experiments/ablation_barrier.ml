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

(* ---- JSON (BENCH_4.json) -------------------------------------------------- *)

let json rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "{\n  \"bench\": \"barrier-elision ablation\",\n  \"unit\": \"seconds \
     (best-of-repeats per phase)\",\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": %S, \"phase\": %S, \"bytes\": %d,\n\
           \     \"instrumented_seconds\": %.9f, \
            \"instrumented_guard_seconds\": %.9f,\n\
           \     \"elided_seconds\": %.9f, \"elided_guard_seconds\": %.9f,\n\
           \     \"guard_visits_instrumented\": %d, \
            \"guard_visits_elided\": %d,\n\
           \     \"reduction_pct\": %.2f, \"bytes_identical\": %b}%s\n"
           r.workload r.phase r.bytes r.instrumented_seconds
           r.instrumented_guard_seconds r.elided_seconds
           r.elided_guard_seconds r.guard_visits_instrumented
           r.guard_visits_elided (reduction r) r.bytes_identical
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ---- table + checks ------------------------------------------------------- *)

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

let pp_table ppf rows =
  let table =
    Ickpt_harness.Table.create ~title
      ~columns:
        [ "workload"; "phase"; "instrumented"; "guard"; "elided"; "saved" ]
  in
  List.iter
    (fun r ->
      Ickpt_harness.Table.add_row table
        [ r.workload;
          r.phase;
          Ickpt_harness.Table.cell_seconds
            (r.instrumented_seconds +. r.instrumented_guard_seconds);
          Ickpt_harness.Table.cell_seconds r.instrumented_guard_seconds;
          Ickpt_harness.Table.cell_seconds
            (r.elided_seconds +. r.elided_guard_seconds);
          Printf.sprintf "%.1f%%" (reduction r) ])
    rows;
  Format.fprintf ppf "%a@." Ickpt_harness.Table.pp table

let run ~scale ppf =
  let repeats = if scale >= 1.0 then 5 else 3 in
  let rows =
    measure ~repeats
      [ ("image", Minic.Gen.image_program ());
        ("small", Minic.Gen.small_program ()) ]
  in
  pp_table ppf rows;
  checks rows
