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

(* Same probing as the test suites: runtest executes in the test
   directory, dune exec at the workspace root. *)
let example_path file =
  let candidates =
    [ Filename.concat "examples/workloads" file;
      Filename.concat "../examples/workloads" file;
      Filename.concat "../../examples/workloads" file;
      Filename.concat "_build/default/examples/workloads" file ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith (Printf.sprintf "example workload %s not found" file)

let load_example file =
  let ic = open_in_bin (example_path file) in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Minic.Parser.parse src

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
    (fun f -> (Filename.remove_extension f, load_example f))
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

let store_files path = [ Store.pack_path path; Store.index_path path ]

let with_store schema ~slug f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ickpt_live_%s.ckpt" slug)
  in
  let clean () =
    List.iter (fun p -> if Sys.file_exists p then Sys.remove p) (store_files path)
  in
  clean ();
  Fun.protect ~finally:clean (fun () -> f (Store.open_ schema ~path))

let pack_bytes ~slug chain =
  with_store (Chain.schema chain) ~slug (fun store ->
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
  let slug =
    String.map (fun c -> if c = '/' || c = '.' then '_' else c) wname
  in
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
    pack_baseline = pack_bytes ~slug:(slug ^ "_base") base;
    pack_minimized = pack_bytes ~slug:(slug ^ "_min") min;
    live_cells = tl.Elide_oracle.live_cells;
    resumes = tl.Elide_oracle.resumes;
    reads_checked = tl.Elide_oracle.reads_checked;
    oracle_ok = Elide_oracle.ok o }

let measure_all () = List.map measure (workloads ())

(* ---- JSON (BENCH_6.json) ------------------------------------------------- *)

let json rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "{\n  \"bench\": \"liveness-minimization ablation\",\n  \"unit\": \
     \"incremental segment-body bytes; tracked shape nodes\",\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"workload\": %S, \"epochs\": %d,\n\
           \     \"baseline_bytes\": %d, \"minimized_bytes\": %d,\n\
           \     \"baseline_bytes_per_segment\": %.2f, \
            \"minimized_bytes_per_segment\": %.2f,\n\
           \     \"reduction\": %.4f,\n\
           \     \"blocks_total\": %d, \"blocks_kept\": %d, \
            \"blocks_dropped\": %d,\n\
           \     \"pack_baseline_bytes\": %d, \"pack_minimized_bytes\": %d,\n\
           \     \"live_cells_compared\": %d, \"resumes\": %d, \
            \"reads_containment_checked\": %d,\n\
           \     \"oracle_ok\": %b}%s\n"
           r.workload r.epochs r.baseline_bytes r.minimized_bytes
           r.baseline_per_seg r.minimized_per_seg r.reduction r.blocks_total
           r.blocks_kept r.blocks_dropped r.pack_baseline r.pack_minimized
           r.live_cells r.resumes r.reads_checked r.oracle_ok
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* ---- table + checks ------------------------------------------------------ *)

let pp_table ppf rows =
  let table =
    Ickpt_harness.Table.create ~title
      ~columns:
        [ "workload"; "epochs"; "inc base"; "inc min"; "reduction";
          "kept/total"; "pack base"; "pack min"; "oracle" ]
  in
  List.iter
    (fun r ->
      Ickpt_harness.Table.add_row table
        [ r.workload;
          string_of_int r.epochs;
          Ickpt_harness.Table.cell_bytes r.baseline_bytes;
          Ickpt_harness.Table.cell_bytes r.minimized_bytes;
          Printf.sprintf "%.1f%%" (100.0 *. r.reduction);
          Printf.sprintf "%d/%d" r.blocks_kept r.blocks_total;
          Ickpt_harness.Table.cell_bytes r.pack_baseline;
          Ickpt_harness.Table.cell_bytes r.pack_minimized;
          (if r.oracle_ok then "ok" else "FAIL") ])
    rows;
  Format.fprintf ppf "%a@." Ickpt_harness.Table.pp table

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

let run ~scale ppf =
  ignore (scale : Workload.scale);
  let rows = measure_all () in
  pp_table ppf rows;
  checks rows
