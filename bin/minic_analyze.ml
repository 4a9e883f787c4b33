(* Analyze a mini-C program with the checkpointed analysis engine: parse a
   source file (or generate the built-in image-manipulation workload), run
   side-effect / binding-time / evaluation-time analysis with per-iteration
   checkpoints, report statistics, and optionally persist the checkpoint
   chain as a store for later recovery. *)

open Cmdliner
open Ickpt_analysis

let mode_conv =
  let parse = function
    | "full" -> Ok Engine.Full
    | "incremental" -> Ok Engine.Incremental
    | "specialized" -> Ok (Engine.Specialized { guard = false })
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  Arg.conv (parse, Engine.pp_mode)

let file_arg =
  let doc = "Mini-C source file to analyze (default: generated workload)." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let mode_arg =
  let doc = "Checkpointing method: full, incremental or specialized." in
  Arg.(value & opt mode_conv Engine.Incremental & info [ "mode" ] ~doc)

let bta_arg =
  let doc = "Minimum binding-time analysis iterations (paper: 9)." in
  Arg.(value & opt int 9 & info [ "bta-iterations" ] ~doc)

let eta_arg =
  let doc = "Minimum evaluation-time analysis iterations (paper: 3)." in
  Arg.(value & opt int 3 & info [ "eta-iterations" ] ~doc)

let guard_arg =
  let doc =
    "Validate specialization declarations at every checkpoint (specialized \
     mode)."
  in
  Arg.(value & flag & info [ "guard" ] ~doc)

let chain_arg =
  let doc =
    "Write the checkpoint chain as a store rooted at $(docv) ($(docv).pack \
     and $(docv).idx, replacing any store there)."
  in
  Arg.(value & opt (some string) None & info [ "save-chain" ] ~docv:"PATH" ~doc)

let dump_arg =
  let doc = "Print the analyzed program source and exit." in
  Arg.(value & flag & info [ "dump-source" ] ~doc)

let run file mode bta_min eta_min guard chain_path dump =
  let program =
    match file with
    | None -> Minic.Gen.image_program ()
    | Some path -> (
        let ic = open_in_bin path in
        let src =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        try Minic.Parser.parse src with
        | Minic.Parser.Parse_error { line; message } ->
            Printf.eprintf "%s:%d: %s\n" path line message;
            exit 1
        | Minic.Lexer.Lex_error { line; col; message } ->
            Printf.eprintf "%s:%d:%d: %s\n" path line col message;
            exit 1)
  in
  if dump then begin
    print_string (Minic.Pp.to_string program);
    exit 0
  end;
  (match Minic.Check.check program with
  | _ -> ()
  | exception Minic.Check.Check_error msg ->
      Printf.eprintf "check error: %s\n" msg;
      exit 1);
  let mode =
    match mode with Engine.Specialized _ -> Engine.Specialized { guard } | m -> m
  in
  let report =
    Engine.analyze
      (Engine.Declared
         { Engine.declared with
           mode;
           bta_min;
           eta_min;
           measure_traversal = true })
      program
  in
  Format.printf "analyzed %d statements, mode %a@." report.Engine.n_stmts
    Engine.pp_mode mode;
  Format.printf "base checkpoint: %d bytes@." report.Engine.base_bytes;
  List.iter
    (fun (p : Engine.phase_report) ->
      Format.printf
        "phase %-4s %2d iterations, analysis %.4f s, checkpoints %.4f s, %d \
         bytes total@."
        p.Engine.phase p.Engine.iterations p.Engine.analysis_seconds
        (Engine.phase_ckp_seconds p)
        (Engine.phase_bytes p))
    report.Engine.phases;
  (match chain_path with
  | None -> ()
  | Some path ->
      let open Ickpt_cas in
      let chain = report.Engine.chain in
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ Store.pack_path path; Store.index_path path ];
      let store = Store.open_ (Ickpt_core.Chain.schema chain) ~path in
      List.iter
        (fun seg -> ignore (Store.append_segment store seg))
        (Ickpt_core.Chain.segments chain);
      Format.printf "checkpoint chain (%d segments) written to the store %s@."
        (Ickpt_core.Chain.length chain)
        path);
  (* Summarize the analysis results themselves. *)
  let attrs = Engine.attrs report in
  let count pred =
    let n = ref 0 in
    for sid = 0 to report.Engine.n_stmts - 1 do
      if pred sid then incr n
    done;
    !n
  in
  Format.printf "binding times: %d static, %d dynamic@."
    (count (fun s -> Attrs.get_bt attrs s = Attrs.bt_static))
    (count (fun s -> Attrs.get_bt attrs s = Attrs.bt_dynamic));
  Format.printf "evaluation times: %d spec-time, %d run-time@.@."
    (count (fun s -> Attrs.get_et attrs s = Attrs.et_spec_time))
    (count (fun s -> Attrs.get_et attrs s = Attrs.et_run_time));
  Format.printf "%a@." Report.pp (Report.per_function report.Engine.env attrs);
  let dead = Deadcode.dead_statements report.Engine.env in
  if dead <> [] then
    Format.printf
      "dead-store elimination could remove %d top-level pass(es) of main@."
      (List.length dead)

let () =
  let doc = "checkpointed program analysis engine for mini-C" in
  let info = Cmd.info "minic_analyze" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      const run $ file_arg $ mode_arg $ bta_arg $ eta_arg $ guard_arg
      $ chain_arg $ dump_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
