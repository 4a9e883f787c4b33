(* The paper's realistic application (Section 4): run the program analysis
   engine over a generated ~750-line image-manipulation program, taking a
   checkpoint after every analysis iteration, and compare the three
   checkpointing methods. Also prints the residual BTA-phase checkpointing
   code, the analog of the paper's Figure 6.

   Run with: dune exec examples/analysis_checkpoint.exe *)

open Ickpt_analysis

let describe (r : Engine.report) =
  Format.printf "  mode %-12s base checkpoint %6d bytes@."
    (Format.asprintf "%a" Engine.pp_mode r.Engine.mode)
    r.Engine.base_bytes;
  List.iter
    (fun (p : Engine.phase_report) ->
      let bytes =
        List.map (fun (s : Engine.iteration_stat) -> s.Engine.bytes) p.Engine.stats
      in
      Format.printf "    %-4s %d iterations, per-iteration bytes: %s@."
        p.Engine.phase p.Engine.iterations
        (String.concat ", " (List.map string_of_int bytes)))
    r.Engine.phases

let () =
  let program = Minic.Gen.image_program () in
  Format.printf "analyzing a %d-line mini-C program (%d statements)@.@."
    (Minic.Pp.line_count program)
    (Minic.Ast.stmt_count program);

  (* The analyzed program is a real program — run it. *)
  let outcome = Minic.Interp.run program in
  Format.printf "the analyzed program itself runs: main() = %s (%d steps)@.@."
    (match outcome.Minic.Interp.return_value with
    | Some v -> string_of_int v
    | None -> "void")
    outcome.Minic.Interp.steps;

  Format.printf "paper configuration: BTA runs 9 iterations, ETA 3@.@.";
  let modes = Engine.[ Full; Incremental; Specialized { guard = true } ] in
  let reports =
    List.map
      (fun mode ->
        Engine.analyze
          (Engine.Declared { Engine.declared with mode; bta_min = 9; eta_min = 3 })
          program)
      modes
  in
  List.iter describe reports;

  (* The analyses are deterministic: every mode ends in the same state. *)
  (match reports with
  | [ a; b; c ] ->
      let ra = Engine.recover_annotations a
      and rb = Engine.recover_annotations b
      and rc = Engine.recover_annotations c in
      Format.printf
        "@.all three modes recover identical analysis results: %b@."
        (ra = rb && rb = rc)
  | _ -> assert false);

  (* Show the specialized checkpointing code for the BTA phase. *)
  let attrs = Attrs.create ~n_stmts:1 in
  let bta_shape = Attrs.bta_shape attrs in
  Format.printf
    "@.two-level view of the generic checkpoint method for the BTA phase@.\
     (what the specializer decides, Tempo-style):@.%a@."
    Jspec.Bta.pp_two_level
    (Jspec.Bta.annotate_method bta_shape Jspec.Cklang.M_checkpoint);
  let plan = Jspec.Pe.specialize bta_shape in
  Format.printf
    "@.BTA-phase specialized checkpointing (cf. paper Figure 6):@.%s@."
    (Jspec.Java_pp.to_string plan);

  (* And the declaration inference (the paper's future work): learn the
     BTA modification pattern from a trace instead of writing it down. *)
  let program2 = Minic.Gen.image_program ~n_filters:3 () in
  let env = Minic.Check.check program2 in
  let attrs2 = Attrs.create ~n_stmts:(Minic.Ast.stmt_count program2) in
  ignore (Sea.run env attrs2);
  let _, inferred =
    Decls.infer attrs2 (fun () ->
        Bta_phase.run ~division:Minic.Gen.static_globals env attrs2)
  in
  Format.printf
    "inferred BTA shape tracks %d node(s), hand-written tracks %d — the \
     inference recovers the declaration automatically@."
    (Jspec.Sclass.tracked_count inferred)
    (Jspec.Sclass.tracked_count (Attrs.bta_shape attrs2))
