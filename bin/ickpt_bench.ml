(* Command-line front end over the experiment registry: run any subset of
   the paper's tables/figures at any scale, list them, or run the Bechamel
   micro-benchmarks. *)

open Cmdliner
open Ickpt_experiments

let scale_arg =
  let doc =
    "Synthetic population as a fraction of the paper's 20,000 structures."
  in
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let paper_arg =
  let doc = "Run at full paper scale (equivalent to --scale 1)." in
  Arg.(value & flag & info [ "paper" ] ~doc)

let names_arg =
  let doc = "Experiments to run (default: all)." in
  Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc)

(* A FAILed shape check exits 1 (an N/A one does not count); command-line
   errors keep cmdliner's 124. *)
let verdict = function
  | [] -> `Ok ()
  | failed ->
      Printf.eprintf "ickpt_bench: %d shape check(s) failed\n"
        (List.length failed);
      exit 1

let run_cmd =
  let run scale paper names =
    let scale = if paper then 1.0 else scale in
    let ppf = Format.std_formatter in
    let names = match names with [] -> None | l -> Some l in
    let results = Registry.run_all ?names ~scale ppf in
    verdict (List.concat_map (fun (_, cs) -> Workload.failures cs) results)
  in
  let doc = "run evaluation experiments (tables and figures)" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(ret (const run $ scale_arg $ paper_arg $ names_arg))

let list_cmd =
  let list () =
    List.iter
      (fun e -> Printf.printf "%-8s %s\n" e.Registry.name e.Registry.title)
      Registry.all
  in
  let doc = "list available experiments" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list $ const ())

let micro_cmd =
  let quota_arg =
    let doc = "Sampling budget per test in seconds." in
    Arg.(value & opt float 0.25 & info [ "quota" ] ~docv:"SECONDS" ~doc)
  in
  let micro quota = Micro.run ~quota Format.std_formatter in
  let doc = "run the Bechamel micro-benchmarks" in
  Cmd.v (Cmd.info "micro" ~doc) Term.(const micro $ quota_arg)

let crash_cmd =
  let open Ickpt_faultsim in
  let rounds_arg =
    let doc = "Mutate-and-checkpoint rounds after the base checkpoint." in
    Arg.(value & opt (some int) None & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let density_arg =
    let doc =
      "Interior byte offsets injected per write op (0 = only the \
       boundaries 0, 1, len-1, len)."
    in
    Arg.(value & opt int 2 & info [ "density" ] ~docv:"N" ~doc)
  in
  let configs_arg =
    let doc =
      "Sweeps to run: $(b,store), $(b,service) (power losses), \
       $(b,store/io-error), $(b,service/io-error) (one-shot I/O errors); \
       default: all four."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"SWEEP" ~doc)
  in
  let crash rounds density labels =
    let sweep w = (w.Sweep.label, fun () -> Sweep.run ~density w) in
    let errors w =
      (w.Sweep.label ^ "/io-error", fun () -> Sweep.run_errors ~density w)
    in
    let store = Store_sim.workload ?rounds ()
    and service = Service_sim.workload ?rounds () in
    let sweeps = [ sweep store; sweep service; errors store; errors service ] in
    let selected =
      List.filter
        (fun (label, _) -> labels = [] || List.mem label labels)
        sweeps
    in
    if selected = [] then `Error (false, "no sweep matches")
    else
      let reports = List.map (fun (_, run) -> run ()) selected in
      Sweep.pp_summary Format.std_formatter reports;
      if List.for_all Sweep.ok reports then `Ok ()
      else `Error (false, "crash-consistency violations found")
  in
  let doc =
    "sweep simulated power-loss points, and one-shot I/O errors at the same \
     points, over the store and the service, and verify recovery is always \
     prefix-consistent and keeps every epoch reported durable"
  in
  Cmd.v (Cmd.info "crash" ~doc)
    Term.(ret (const crash $ rounds_arg $ density_arg $ configs_arg))

(* ---- the extension ablations (BENCH_4..8) ------------------------------- *)

let out_arg bench =
  let doc =
    Printf.sprintf
      "Write the rows and checks as JSON (the BENCH_%d.json document) to \
       $(docv)."
      bench
  in
  Arg.(value & opt (some string) None & info [ "o"; "json" ] ~docv:"PATH" ~doc)

let files_arg =
  let doc =
    "Mini-C workloads (default: the built-in image and small generator \
     programs)."
  in
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)

let repeats_arg doc =
  Arg.(value & opt int 3 & info [ "repeats" ] ~docv:"N" ~doc)

(* Mini-C files named on the command line, or the built-in generator
   programs; a file that does not parse is a usage error (exit 2). *)
let load_workloads = function
  | [] -> Workload.generator_programs ()
  | files ->
      List.map
        (fun path ->
          match Workload.load_program path with
          | program ->
              (Filename.remove_extension (Filename.basename path), program)
          | exception Minic.Parser.Parse_error { line; message } ->
              Printf.eprintf "%s:%d: %s\n" path line message;
              exit 2
          | exception Minic.Lexer.Lex_error { line; col; message } ->
              Printf.eprintf "%s:%d:%d: %s\n" path line col message;
              exit 2)
        files

let report out doc = verdict (Bench_doc.emit ?out Format.std_formatter doc)

let barrier_cmd =
  let repeats_arg =
    repeats_arg "Engine runs per configuration; per-phase minima are kept."
  in
  let barrier files out repeats =
    report out
      (Ablation_barrier.doc
         (Ablation_barrier.measure ~repeats (load_workloads files)))
  in
  let doc =
    "measure per-phase checkpoint overhead with and without static \
     write-barrier elision"
  in
  Cmd.v
    (Cmd.info "barrier" ~doc)
    Term.(ret (const barrier $ files_arg $ out_arg 4 $ repeats_arg))

let dedup_cmd =
  let repeats_arg =
    repeats_arg "Restore timings per row; the fastest run is kept."
  in
  let epochs_arg =
    let doc = "Incremental epochs in the long pagerank-style run." in
    Arg.(value & opt int 120 & info [ "epochs" ] ~docv:"N" ~doc)
  in
  let pages_arg =
    let doc = "Pages in the long pagerank-style run." in
    Arg.(value & opt int 300 & info [ "pages" ] ~docv:"N" ~doc)
  in
  let dedup files out repeats epochs pages =
    report out
      (Ablation_dedup.doc
         (Ablation_dedup.measure_engine ~repeats (load_workloads files)
         @ [ Ablation_dedup.measure_pagerank ~repeats ~epochs ~pages () ]))
  in
  let doc =
    "measure chunk dedup and O(live) epoch restore of the content-addressed \
     store against plain chain replay"
  in
  Cmd.v
    (Cmd.info "dedup" ~doc)
    Term.(
      ret (const dedup $ files_arg $ out_arg 5 $ repeats_arg $ epochs_arg
           $ pages_arg))

let live_cmd =
  let live out =
    report out (Ablation_live.doc (Ablation_live.measure_all ()))
  in
  let doc =
    "measure checkpoint-set minimization by the interprocedural liveness \
     analysis, gated per workload by the restore-equivalence oracle"
  in
  Cmd.v (Cmd.info "live" ~doc) Term.(ret (const live $ out_arg 6))

let par_cmd =
  let par out = report out (Ablation_par.doc (Ablation_par.measure_all ())) in
  let doc =
    "measure domain-parallel execution of interference-scheduled phases \
     and strips, gated per row by the sequential-identity oracle"
  in
  Cmd.v (Cmd.info "par" ~doc) Term.(ret (const par $ out_arg 7))

let tenant_cmd =
  let repeat_arg =
    let doc =
      "Chain replays per tenant session (longer sessions; 1 for a smoke \
       run)."
    in
    Arg.(value & opt int 3 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let tenant out repeat =
    report out (Ablation_tenant.doc (Ablation_tenant.measure_all ~repeat ()))
  in
  let doc =
    "measure multi-tenant throughput, group-commit fsync amortization and \
     cross-tenant dedup on the shared pack, gated per row by per-tenant \
     restore identity"
  in
  Cmd.v
    (Cmd.info "tenant" ~doc)
    Term.(ret (const tenant $ out_arg 8 $ repeat_arg))

let () =
  let doc =
    "benchmark harness for the incremental-checkpointing reproduction"
  in
  let info = Cmd.info "ickpt_bench" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; list_cmd; micro_cmd; crash_cmd; barrier_cmd; dedup_cmd;
            live_cmd; par_cmd; tenant_cmd ]))
