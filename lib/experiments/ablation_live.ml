open Ickpt_core
open Ickpt_cas
open Ickpt_analysis
open Staticcheck

let name = "live"

let title =
  "Liveness-minimization ablation: checkpoint bytes with and without the \
   interprocedural live-region analysis, gated by the restore-equivalence \
   oracle (extension)"

type row = {
  workload : string;
  epochs : int;  (** incremental epochs the oracle compared *)
  baseline_bytes : int;  (** incremental segment bodies, unminimized *)
  minimized_bytes : int;  (** incremental segment bodies, minimized *)
  baseline_per_seg : float;
  minimized_per_seg : float;
  reduction : float;  (** 1 - minimized/baseline incremental bytes; 0 at 0/0 *)
  blocks_total : int;  (** tracked shape nodes across phases, unminimized *)
  blocks_kept : int;  (** tracked shape nodes surviving minimization *)
  blocks_dropped : int;  (** demoted to Clean by the liveness analysis *)
  pack_baseline : int;  (** on-disk pack bytes of the unminimized chain *)
  pack_minimized : int;  (** on-disk pack bytes of the minimized chain *)
  live_cells : int;  (** cells restore-compared by the oracle *)
  resumes : int;  (** resumed executions the oracle completed *)
  reads_checked : int;  (** post-switch reads containment-checked *)
  oracle_ok : bool;  (** the liveness oracle found no divergence *)
}

(* ---- workload sources ---------------------------------------------------- *)

(* A control workload where liveness proves nothing: the accumulator is
   read on every round and returned, so every tracked cell is live at
   every boundary. Its row must report zero dropped blocks and zero
   reduction — the honest-zeros check below pins that down. *)
let all_live_src =
  "int s;\n\
   int main() {\n\
  \  int i;\n\
  \  s = 0;\n\
  \  i = 0;\n\
  \  while (i < 8) {\n\
  \    s = s + i;\n\
  \    i = i + 1;\n\
  \  }\n\
  \  return s;\n\
   }\n"

let workloads () =
  List.map
    (fun f -> (Filename.remove_extension f, Workload.load_example f))
    [ "blur.mc"; "histogram.mc"; "pagerank.mc"; "kvlog.mc" ]
  @ [ ("all-live", Minic.Parser.parse all_live_src) ]

(* ---- measurement --------------------------------------------------------- *)

let rec tracked_nodes (s : Jspec.Sclass.shape) =
  let self = match s.Jspec.Sclass.status with Jspec.Sclass.Tracked -> 1 | Jspec.Sclass.Clean -> 0 in
  Array.fold_left
    (fun acc c ->
      match c with
      | Jspec.Sclass.Exact s | Jspec.Sclass.Nullable s -> acc + tracked_nodes s
      | Jspec.Sclass.Null_child | Jspec.Sclass.Unknown | Jspec.Sclass.Clean_opaque
        -> acc)
    self s.Jspec.Sclass.children

let tracked_total shapes_of phases =
  List.fold_left
    (fun acc ph ->
      List.fold_left (fun acc (_, s) -> acc + tracked_nodes s) acc
        (shapes_of ph))
    0 phases

let pack_bytes name chain =
  Workload.with_store (Chain.schema chain) ("live_" ^ name) (fun store ->
      List.iter
        (fun s -> ignore (Store.append_segment store s))
        (Chain.segments chain);
      (Store.stats store).Store.physical_bytes)

let measure (wname, program) =
  let env = Minic.Check.check program in
  let t = Auto_spec.infer env in
  let o =
    Elide_oracle.run ~name:wname
      (Elide_oracle.Liveness { seed_unsound = false })
      program
  in
  let tl = o.Elide_oracle.tallies in
  (* The oracle's own two runs: the baseline is its inferred run, the
     minimized chain its [Minimized] one. *)
  let chain_of p =
    List.find_map
      (fun (run, (r : Engine.report)) ->
        if p run then Some r.Engine.chain else None)
      o.Elide_oracle.reports
    |> Option.get
  in
  let base = chain_of (function Engine.Inferred _ -> true | _ -> false) in
  let min = chain_of (function Engine.Minimized _ -> true | _ -> false) in
  let total =
    tracked_total (fun ph -> ph.Auto_spec.ph_shapes) t.Auto_spec.a_phases
  in
  let kept =
    tracked_total (fun ph -> ph.Auto_spec.ph_min_shapes) t.Auto_spec.a_phases
  in
  let per_seg b =
    if tl.Elide_oracle.epochs = 0 then 0.0
    else float_of_int b /. float_of_int tl.Elide_oracle.epochs
  in
  let bb = tl.Elide_oracle.baseline_bytes in
  let mb = tl.Elide_oracle.minimized_bytes in
  { workload = wname;
    epochs = tl.Elide_oracle.epochs;
    baseline_bytes = bb;
    minimized_bytes = mb;
    baseline_per_seg = per_seg bb;
    minimized_per_seg = per_seg mb;
    reduction =
      (if bb = 0 then 0.0 else 1.0 -. (float_of_int mb /. float_of_int bb));
    blocks_total = total;
    blocks_kept = kept;
    blocks_dropped = total - kept;
    pack_baseline = pack_bytes (wname ^ "_base") base;
    pack_minimized = pack_bytes (wname ^ "_min") min;
    live_cells = tl.Elide_oracle.live_cells;
    resumes = tl.Elide_oracle.resumes;
    reads_checked = tl.Elide_oracle.reads_checked;
    oracle_ok = Elide_oracle.ok o }

let measure_all () = List.map measure (workloads ())

(* ---- checks + document -------------------------------------------------- *)

let checks rows =
  let open Workload in
  [ check ~label:"live: restore-equivalence oracle passes on every workload"
      ~ok:(rows <> [] && List.for_all (fun r -> r.oracle_ok) rows)
      ~detail:
        "every epoch of every minimized chain restores, resumes, and \
         contains its post-switch reads per the static live regions";
    check ~label:"live: >= 10% incremental-byte reduction on >= 1 workload"
      ~ok:(List.exists (fun r -> r.reduction >= 0.10) rows)
      ~detail:
        "dropping dead dirty blocks shrinks the per-segment checkpoint \
         payload by at least a tenth somewhere";
    check ~label:"live: honest zeros - reduction only where blocks dropped"
      ~ok:
        (List.for_all
           (fun r ->
             if r.blocks_dropped = 0 then r.reduction <= 0.0001
             else r.reduction > 0.0 || r.baseline_bytes = 0)
           rows)
      ~detail:
        "a row that demotes no tracked block claims no byte reduction; \
         liveness that proves nothing saves nothing";
    check ~label:"live: the all-live control drops nothing"
      ~ok:
        (List.exists
           (fun r -> r.workload = "all-live" && r.blocks_dropped = 0)
           rows)
      ~detail:
        "the accumulator workload keeps every tracked cell live at every \
         boundary, so minimization must be the identity on it";
    check ~label:"live: every oracle row exercised resumes and reads"
      ~ok:
        (List.for_all
           (fun r -> r.epochs = 0 || (r.resumes > 0 && r.live_cells >= 0))
           rows)
      ~detail:
        "no silent caps: each workload with incremental epochs completed \
         resumed executions rather than skipping the expensive check" ]

let columns =
  Bench_doc.
    [ column ~head:"workload" "workload" (fun r -> String r.workload);
      column ~head:"epochs" "epochs" (fun r -> Int r.epochs);
      column ~head:"inc base" "baseline_bytes" (fun r ->
          Bytes r.baseline_bytes);
      column ~head:"inc min" "minimized_bytes" (fun r ->
          Bytes r.minimized_bytes);
      column "baseline_bytes_per_segment" (fun r ->
          Float (2, r.baseline_per_seg));
      column "minimized_bytes_per_segment" (fun r ->
          Float (2, r.minimized_per_seg));
      column ~head:"reduction" "reduction" (fun r -> Float (4, r.reduction));
      column ~head:"total" "blocks_total" (fun r -> Int r.blocks_total);
      column ~head:"kept" "blocks_kept" (fun r -> Int r.blocks_kept);
      column "blocks_dropped" (fun r -> Int r.blocks_dropped);
      column ~head:"pack base" "pack_baseline_bytes" (fun r ->
          Bytes r.pack_baseline);
      column ~head:"pack min" "pack_minimized_bytes" (fun r ->
          Bytes r.pack_minimized);
      column "live_cells_compared" (fun r -> Int r.live_cells);
      column "resumes" (fun r -> Int r.resumes);
      column "reads_containment_checked" (fun r -> Int r.reads_checked);
      column ~head:"oracle" "oracle_ok" (fun r -> Bool r.oracle_ok) ]

let doc rows =
  Bench_doc.make ~bench:"liveness-minimization ablation" ~title
    ~unit:"incremental segment-body bytes; tracked shape nodes" columns rows
    (checks rows)

let run ~scale:_ ppf = Bench_doc.print_table ppf (doc (measure_all ()))
