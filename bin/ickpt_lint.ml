(* Static verification of specialization classes and residual code.

   Four subcommands, all running before any heap exists:

   - [lint] (the default): effect inference over the workload program,
     spec-lint of the three shipped phase declarations against the
     statically inferred shapes, and residual lint (dead stores,
     unreachable branches, redundant modified tests) of the specialized
     code;
   - [verify]: translation validation — symbolically prove, for every
     shipped specialization class (the three analysis phases and the
     three synthetic-application knowledge levels), that the residual
     checkpoint code writes byte-for-byte what the generic incremental
     algorithm writes, on every conforming heap, before and after the
     cleanup pass. [--seed-miscompile] mutates the residual code first
     and demonstrates the refutations;
   - [elide]: the static write-barrier elision plans — which attribute
     sites each phase provably never writes (barrier + flag maintenance
     compiled out) and how much of the runtime guard is discharged.
     [--oracle] re-verifies the plans dynamically (byte identity and
     invariant I8); [--seed-unsound] demonstrates the refusal on a wrong
     declaration;
   - [infer]: fully automatic checkpoint inference on an annotation-free
     program — discovered phases, inferred heap shapes, per-phase
     effects, a translation-validation verdict for every synthesized
     checkpointer (non-verified = hard error, never a silent generic
     fallback), and the inferred barrier-elision plan. [--oracle] runs
     the differential oracle on the inferred pipeline; [--seed-unsound]
     mutates a synthesized shape before validation and demonstrates the
     refusal;
   - [live]: interprocedural liveness and checkpoint-set minimization —
     per-boundary live regions, the minimized (may-write ∩ live)
     checkpoint set, and the live-extended elision plan. [--oracle] runs
     the restore-equivalence oracle (restore, resume, containment);
     [--seed-unsound] drops one live block from the minimized set — no
     static finding fires, only the dynamic oracle catches it, so the
     flag implies [--oracle] and the command must fail;
   - [par]: may-read/may-write interference analysis and the
     domain-parallel schedule it proves safe — disjoint phase groups and
     iteration strips, with a finding-reported refusal (naming the
     conflicting region pair) wherever footprints may overlap.
     [--oracle] executes the schedule on OCaml domains and verifies
     byte-identity with the sequential chain plus pairwise
     observed-footprint disjointness; [--seed-racy] widens one strip by
     one cell past the static checks — only the dynamic oracle catches
     it, so the flag implies [--oracle] and the command must fail.

   All subcommands share one [--json] envelope: top-level [tool],
   [schema_version], [subcommand], [errors], [warnings], [findings] and
   [exit_code].

   Exit codes (uniform across all subcommands): 0 — clean; 1 —
   error-severity findings (unsound declaration, refuted residual code,
   unsound elision or a failed oracle); 2 — usage or input error. *)

open Cmdliner
open Ickpt_analysis

(* ---- shared arguments and helpers ---------------------------------------- *)

let file_arg =
  let doc = "Mini-C source file to analyze (default: generated workload)." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let workload_arg =
  let doc = "Built-in workload when no FILE is given: image or small." in
  Arg.(
    value
    & opt (enum [ ("image", `Image); ("small", `Small) ]) `Image
    & info [ "workload" ] ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON on stdout instead of the report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let load_program file workload =
  match file with
  | None -> (
      match workload with
      | `Image -> Minic.Gen.image_program ()
      | `Small -> Minic.Gen.small_program ())
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
          exit 2
      | Minic.Lexer.Lex_error { line; col; message } ->
          Printf.eprintf "%s:%d:%d: %s\n" path line col message;
          exit 2)

let check_program program =
  match Minic.Check.check program with
  | env -> env
  | exception Minic.Check.Check_error msg ->
      Printf.eprintf "check error: %s\n" msg;
      exit 2

let workload_name file workload =
  match file with
  | Some path -> Filename.basename path
  | None -> ( match workload with `Image -> "image" | `Small -> "small")

(* Run one differential oracle family on the workload, printing its
   verdict unless the output is JSON. Its failures join the subcommand's
   findings through [oracle_findings], so the text report, the JSON
   envelope and the exit code all see them. *)
let run_oracle ~json ~file ~workload family program =
  let o =
    Elide_oracle.run ~name:(workload_name file workload) family program
  in
  if not json then Format.printf "%a@." Elide_oracle.pp o;
  o

let oracle_findings = Option.fold ~none:[] ~some:Elide_oracle.findings

(* [null] when the oracle did not run. *)
let oracle_ok_json = function
  | None -> "null"
  | Some o -> string_of_bool (Elide_oracle.ok o)

let phase_shapes attrs =
  [ (Staticcheck.Phase_model.Sea, Attrs.sea_shape attrs);
    (Staticcheck.Phase_model.Bta, Attrs.bta_shape attrs);
    (Staticcheck.Phase_model.Eta, Attrs.eta_shape attrs) ]

(* ---- JSON output ---------------------------------------------------------- *)

(* Every subcommand emits the same envelope (Staticcheck.Finding.envelope):
   the exit code is computed first, printed inside the JSON, and then
   used to exit — so a parser never has to re-derive severity. *)
let print_envelope ~subcommand ?extra ~exit_code findings =
  print_endline
    (Staticcheck.Finding.envelope ~subcommand ?extra ~exit_code findings)

(* ---- lint (default subcommand) ------------------------------------------- *)

let seed_unsound_arg =
  let doc =
    "Additionally lint a deliberately wrong declaration (the bta shape \
     declared for the sea phase) — must be reported unsound and fail."
  in
  Arg.(value & flag & info [ "seed-unsound" ] ~doc)

let no_effects_arg =
  let doc = "Skip the per-function effect table." in
  Arg.(value & flag & info [ "no-effects" ] ~doc)

let run_lint file workload seed_unsound no_effects json =
  let program = load_program file workload in
  let env = check_program program in
  if not json then
    Format.printf "ickpt_lint: %d function(s), %d statement(s), %d global(s)@."
      (List.length program.Minic.Ast.funcs)
      (Minic.Ast.stmt_count program)
      (Minic.Check.global_count env);
  (* 1. Effect inference over the workload. *)
  if (not no_effects) && not json then begin
    let effects = Staticcheck.Dirty_ai.analyze env in
    Format.printf "@[<v 2>effects (interprocedural, per call):@,%a@]@."
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf f ->
           Format.fprintf ppf "@[<h>%-18s %a@]" f.Minic.Ast.f_name
             (Staticcheck.Dirty_ai.pp_effects effects)
             f.Minic.Ast.f_name))
      program.Minic.Ast.funcs
  end;
  (* 2. Spec-lint the shipped phase declarations. *)
  let attrs = Attrs.create ~n_stmts:(max 1 (Minic.Ast.stmt_count program)) in
  let klasses = Attrs.klasses attrs in
  let spec_findings =
    List.concat_map
      (fun (phase, declared) ->
        List.map Staticcheck.Finding.of_spec
          (Staticcheck.Spec_lint.check_phase ~klasses phase ~declared))
      (phase_shapes attrs)
  in
  (* 3. Residual lint of the specialized code for each phase shape. *)
  let residual_findings =
    List.concat_map
      (fun (phase, shape) ->
        List.map
          (Staticcheck.Finding.of_residual
             ~phase:(Staticcheck.Phase_model.name phase))
          (Staticcheck.Residual_lint.lint_result (Jspec.Pe.specialize shape)))
      (phase_shapes attrs)
  in
  (* 4. Optionally demonstrate the unsound taxonomy on a wrong declaration:
     the bta shape declares the SEEntry subtree Clean, which the sea phase
     writes. *)
  let seeded_findings =
    if not seed_unsound then []
    else
      List.map Staticcheck.Finding.of_spec
        (Staticcheck.Spec_lint.check_phase ~klasses Staticcheck.Phase_model.Sea
           ~declared:(Attrs.bta_shape attrs))
  in
  let all =
    Staticcheck.Finding.sort (spec_findings @ residual_findings @ seeded_findings)
  in
  let exit_code = if Staticcheck.Finding.has_errors all then 1 else 0 in
  if json then print_envelope ~subcommand:"lint" ~exit_code all
  else Format.printf "%a@." Staticcheck.Finding.pp_report all;
  if exit_code <> 0 then exit exit_code

(* ---- verify --------------------------------------------------------------- *)

let seed_miscompile_arg =
  let doc =
    "Additionally verify every single-point mutation of the sea phase's \
     residual code — each miscompile must be refuted with a concrete \
     counterexample heap, and the command must fail."
  in
  Arg.(value & flag & info [ "seed-miscompile" ] ~doc)

let max_vars_arg =
  let doc =
    "Budget on the symbolic heap family: shapes with more boolean \
     variables than this are reported unsupported rather than enumerated."
  in
  Arg.(value & opt int 16 & info [ "max-vars" ] ~docv:"N" ~doc)

(* A small synthetic-application configuration: the same three knowledge
   levels as the paper's experiments, sized so the exhaustive valuation
   enumeration stays instant. *)
let small_synth_config =
  { Ickpt_synth.Synth.n_structures = 1;
    n_lists = 2;
    list_len = 2;
    n_int_fields = 2;
    pct_modified = 100;
    modified_lists = 1;
    last_only = true;
    seed = 42 }

let run_verify file workload seed_miscompile max_vars json =
  let program = load_program file workload in
  let (_ : Minic.Check.env) = check_program program in
  let attrs = Attrs.create ~n_stmts:(max 1 (Minic.Ast.stmt_count program)) in
  let app = Ickpt_synth.Synth.build small_synth_config in
  let shapes =
    [ ("sea", Attrs.sea_shape attrs);
      ("bta", Attrs.bta_shape attrs);
      ("eta", Attrs.eta_shape attrs);
      ("synth-structure", Ickpt_synth.Synth.shape_structure app);
      ("synth-modified-lists", Ickpt_synth.Synth.shape_modified_lists app);
      ("synth-last-only", Ickpt_synth.Synth.shape_last_only app) ]
  in
  let verified = ref [] in
  let findings = ref [] in
  let record name stage verdict =
    (match verdict with
    | Staticcheck.Tv.Verified { vars; paths } ->
        verified := (name, stage, vars, paths) :: !verified
    | _ -> ());
    (match Staticcheck.Tv.finding ~phase:(name ^ ":" ^ stage) verdict with
    | Some f -> findings := f :: !findings
    | None -> ());
    if not json then
      Format.printf "verify: %-24s %-12s %a@." name stage Staticcheck.Tv.pp
        verdict
  in
  List.iter
    (fun (name, shape) ->
      List.iter
        (fun (stage, verdict) -> record name stage verdict)
        (Staticcheck.Tv.verify_shape ~max_vars shape))
    shapes;
  (* Seeded miscompiles: every mutant of the sea residual code must be
     refuted, each refutation confirmed by replaying its counterexample
     heap on the real backends. *)
  if seed_miscompile then begin
    let shape = Attrs.sea_shape attrs in
    let result = Jspec.Pe.specialize shape in
    let rejected = ref 0 and escaped = ref 0 in
    List.iter
      (fun (label, mutant) ->
        match Staticcheck.Tv.verify ~max_vars shape mutant with
        | Staticcheck.Tv.Refuted { replay; _ } as v ->
            incr rejected;
            if not replay.Staticcheck.Equiv.diverged then
              Printf.eprintf "mutant %s: replay did not confirm!\n" label;
            record ("mutant:" ^ label) "seeded" v
        | v ->
            incr escaped;
            record ("mutant:" ^ label) "seeded" v;
            if not json then
              Format.printf "verify: mutant %s escaped (%a)@." label
                Staticcheck.Tv.pp v)
      (Staticcheck.Tv.mutants result);
    if not json then
      Format.printf "verify: %d seeded miscompile(s) rejected, %d escaped@."
        !rejected !escaped
  end;
  let findings = Staticcheck.Finding.sort !findings in
  let exit_code = if Staticcheck.Finding.has_errors findings then 1 else 0 in
  if json then begin
    let verified_json (shape, stage, vars, paths) =
      Printf.sprintf {|{"shape":"%s","stage":"%s","vars":%d,"paths":%d}|}
        (Staticcheck.Finding.json_escape shape)
        (Staticcheck.Finding.json_escape stage)
        vars paths
    in
    let verified =
      Printf.sprintf "[%s]"
        (String.concat "," (List.map verified_json (List.rev !verified)))
    in
    print_envelope ~subcommand:"verify"
      ~extra:[ ("verified", verified) ]
      ~exit_code findings
  end
  else if findings <> [] then
    Format.printf "%a@." Staticcheck.Finding.pp_report findings;
  if exit_code <> 0 then exit exit_code

(* ---- elide ---------------------------------------------------------------- *)

let elide_seed_unsound_arg =
  let doc =
    "Additionally plan elision for a deliberately wrong declaration (the \
     bta shape declared for the sea phase) — the written site must keep \
     its barrier, an error finding must be reported, and the command must \
     fail."
  in
  Arg.(value & flag & info [ "seed-unsound" ] ~doc)

let oracle_arg =
  let doc =
    "Also run the differential soundness oracle on the workload: \
     instrumented vs elided runs must produce byte-identical checkpoint \
     chains, and every dynamically dirty cell must lie inside the static \
     may-write region (invariant I8)."
  in
  Arg.(value & flag & info [ "oracle" ] ~doc)

let run_elide file workload seed_unsound oracle json =
  let program = load_program file workload in
  let (_ : Minic.Check.env) = check_program program in
  let attrs = Attrs.create ~n_stmts:(max 1 (Minic.Ast.stmt_count program)) in
  let plans =
    List.map
      (fun (phase, declared) -> Staticcheck.Barrier_elide.plan ~declared phase)
      (phase_shapes attrs)
  in
  let seeded =
    if not seed_unsound then []
    else
      [ Staticcheck.Barrier_elide.plan
          ~declared:(Attrs.bta_shape attrs)
          Staticcheck.Phase_model.Sea ]
  in
  let static_findings =
    List.concat_map
      (fun (p : Staticcheck.Barrier_elide.plan) -> p.findings)
      (plans @ seeded)
  in
  if not json then begin
    List.iter
      (fun p -> Format.printf "%a@." Staticcheck.Barrier_elide.pp p)
      plans;
    if seeded <> [] then
      List.iter
        (fun p ->
          Format.printf "seeded (bta declared for sea):@.%a@."
            Staticcheck.Barrier_elide.pp p)
        seeded
  end;
  let outcome =
    if oracle then
      Some (run_oracle ~json ~file ~workload Elide_oracle.Elision program)
    else None
  in
  let findings =
    Staticcheck.Finding.sort (static_findings @ oracle_findings outcome)
  in
  let exit_code = if Staticcheck.Finding.has_errors findings then 1 else 0 in
  if json then
    print_envelope ~subcommand:"elide"
      ~extra:[ ("oracle_ok", oracle_ok_json outcome) ]
      ~exit_code findings
  else Format.printf "%a@." Staticcheck.Finding.pp_report findings;
  if exit_code <> 0 then exit exit_code

(* ---- infer ----------------------------------------------------------------- *)

let infer_seed_unsound_arg =
  let doc =
    "Mutate the first synthesized shape (its first Clean node flipped to \
     Tracked) before translation validation — the validator must refute \
     it, an error finding must be reported, and the command must fail."
  in
  Arg.(value & flag & info [ "seed-unsound" ] ~doc)

let infer_oracle_arg =
  let doc =
    "Also run the differential soundness oracle on the inferred pipeline: \
     four annotation-free engine runs whose checkpoint chains must be \
     byte-identical across elision and across modes, with every \
     dynamically dirty block inside its phase's inferred may-write region \
     (invariant I8)."
  in
  Arg.(value & flag & info [ "oracle" ] ~doc)

let run_infer file workload seed_unsound oracle max_vars json =
  let program = load_program file workload in
  let env = check_program program in
  let t = Staticcheck.Auto_spec.infer ~seed_unsound ~max_vars env in
  let static_findings = Staticcheck.Auto_spec.findings t in
  if not json then Format.printf "%a@." Staticcheck.Auto_spec.pp t;
  let outcome =
    if oracle && not (Staticcheck.Finding.has_errors static_findings) then
      Some
        (run_oracle ~json ~file ~workload Elide_oracle.Inferred_elision
           program)
    else None
  in
  let findings =
    Staticcheck.Finding.sort (static_findings @ oracle_findings outcome)
  in
  let exit_code = if Staticcheck.Finding.has_errors findings then 1 else 0 in
  if json then
    print_envelope ~subcommand:"infer"
      ~extra:
        [ ("phases", string_of_int (List.length t.Staticcheck.Auto_spec.a_phases));
          ( "verified_specializations",
            string_of_int (Staticcheck.Auto_spec.verified_count t) );
          ("oracle_ok", oracle_ok_json outcome) ]
      ~exit_code findings;
  if exit_code <> 0 then exit exit_code

(* ---- live ------------------------------------------------------------------ *)

let live_seed_unsound_arg =
  let doc =
    "Drop one live block from the first non-empty minimized region — the \
     minimized checkpointer then skips state a later read needs. No \
     static finding fires; the restore-equivalence oracle (implied by \
     this flag) must catch the stale restore and the command must fail."
  in
  Arg.(value & flag & info [ "seed-unsound" ] ~doc)

let live_oracle_arg =
  let doc =
    "Also run the restore-equivalence oracle: per minimized epoch, the \
     restored live cells must match the unminimized restore, a run \
     resumed from the minimized restore must produce the reference \
     return value and final live state, and everything it reads before \
     writing must lie inside the static live region."
  in
  Arg.(value & flag & info [ "oracle" ] ~doc)

let run_live_cmd file workload seed_unsound oracle json =
  let program = load_program file workload in
  let env = check_program program in
  let t = Staticcheck.Auto_spec.infer ~seed_dead:seed_unsound env in
  let live = t.Staticcheck.Auto_spec.a_live in
  if not json then begin
    Format.printf "%a@." Staticcheck.Live.pp live;
    List.iter
      (fun (pr : Staticcheck.Auto_spec.phase_result) ->
        Format.printf
          "@[<v 2>%s minimized checkpoint set (may-write ∩ live):@,%a@]@."
          pr.Staticcheck.Auto_spec.ph.Staticcheck.Phase_discover.p_name
          (Format.pp_print_list (fun ppf (g, r) ->
               Format.fprintf ppf "%-12s %a" g Staticcheck.Regions.pp r))
          pr.Staticcheck.Auto_spec.ph_min_regions;
        Format.printf "%a@." Staticcheck.Barrier_elide.pp_wplan
          pr.Staticcheck.Auto_spec.ph_live_wplan)
      t.Staticcheck.Auto_spec.a_phases
  end;
  (* The static pipeline stays silent on a seeded-dead block by design —
     the whole point is that only the dynamic oracle gates it. *)
  let outcome =
    if oracle || seed_unsound then
      Some
        (run_oracle ~json ~file ~workload
           (Elide_oracle.Liveness { seed_unsound })
           program)
    else None
  in
  let findings =
    Staticcheck.Finding.sort
      (Staticcheck.Auto_spec.findings t @ oracle_findings outcome)
  in
  let exit_code = if Staticcheck.Finding.has_errors findings then 1 else 0 in
  if json then begin
    let extra =
      [ ("boundaries",
         string_of_int (List.length t.Staticcheck.Auto_spec.a_phases));
        ("oracle_ok", oracle_ok_json outcome) ]
      @
      match outcome with
      | Some { Elide_oracle.tallies = tl; _ } ->
          [ ("baseline_bytes", string_of_int tl.Elide_oracle.baseline_bytes);
            ("minimized_bytes", string_of_int tl.Elide_oracle.minimized_bytes)
          ]
      | None -> []
    in
    print_envelope ~subcommand:"live" ~extra ~exit_code findings
  end
  else Format.printf "%a@." Staticcheck.Finding.pp_report findings;
  if exit_code <> 0 then exit exit_code

(* ---- par ------------------------------------------------------------------- *)

let par_domains_arg =
  let doc = "Domains to schedule parallel units across (minimum 1)." in
  Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc)

let par_seed_racy_arg =
  let doc =
    "Widen one strip's executed range by one cell after the static \
     disjointness checks — a racy overlap no static finding reports. The \
     dynamic oracle (implied by this flag) must observe the footprint \
     intersection and the command must fail; if the schedule has no \
     multi-strip sweep to seed, that is reported as an error instead."
  in
  Arg.(value & flag & info [ "seed-racy" ] ~doc)

let par_oracle_arg =
  let doc =
    "Also run the sequential-identity oracle: the parallel checkpoint \
     chain must be byte-identical to the sequential one in incremental \
     and guarded-specialized modes, and the footprints each domain \
     actually observed must be pairwise disjoint within every fork \
     group (the parallel dual of invariant I8)."
  in
  Arg.(value & flag & info [ "oracle" ] ~doc)

let run_par_cmd file workload domains seed_racy oracle json =
  let program = load_program file workload in
  let env = check_program program in
  let t = Staticcheck.Auto_spec.infer env in
  let sc = Staticcheck.Interfere.schedule ~domains ~seed_racy t in
  if not json then Format.printf "%a@." Staticcheck.Interfere.pp sc;
  (* A seed that found nothing to widen cannot exercise the oracle: the
     self-test is vacuous, which must fail loudly, not pass silently. *)
  let seed_findings =
    if seed_racy && not sc.Staticcheck.Interfere.Schedule.sc_seeded then
      [ { Staticcheck.Finding.severity = Staticcheck.Finding.Error;
          scope = "par";
          path = "seed-racy";
          reason =
            "seed-racy requested but the schedule parallelizes nothing to \
             seed (no multi-strip sweep)" } ]
    else []
  in
  let static_findings =
    Staticcheck.Auto_spec.findings t
    @ sc.Staticcheck.Interfere.Schedule.sc_findings
    @ seed_findings
  in
  let outcome =
    if
      (oracle || seed_racy)
      && not (Staticcheck.Finding.has_errors static_findings)
    then
      Some
        (run_oracle ~json ~file ~workload
           (Elide_oracle.Parallel { domains; seed_racy })
           program)
    else None
  in
  let findings =
    Staticcheck.Finding.sort (static_findings @ oracle_findings outcome)
  in
  let exit_code = if Staticcheck.Finding.has_errors findings then 1 else 0 in
  if json then
    print_envelope ~subcommand:"par"
      ~extra:
        [ ("domains",
           string_of_int sc.Staticcheck.Interfere.Schedule.sc_domains);
          ("par_sweeps",
           string_of_int sc.Staticcheck.Interfere.Schedule.sc_par_sweeps);
          ("refused_sweeps",
           string_of_int sc.Staticcheck.Interfere.Schedule.sc_refused_sweeps);
          ("groups",
           string_of_int sc.Staticcheck.Interfere.Schedule.sc_groups);
          ("seeded",
           if sc.Staticcheck.Interfere.Schedule.sc_seeded then "true"
           else "false");
          ("oracle_ok", oracle_ok_json outcome) ]
      ~exit_code findings
  else Format.printf "%a@." Staticcheck.Finding.pp_report findings;
  if exit_code <> 0 then exit exit_code

(* ---- command line --------------------------------------------------------- *)

let exits =
  [ Cmd.Exit.info 0 ~doc:"no error findings; all shapes verified.";
    Cmd.Exit.info 1
      ~doc:
        "error-severity findings: an unsound declaration or refuted \
         residual code.";
    Cmd.Exit.info 2 ~doc:"usage error, or the input failed to parse/check." ]

let lint_term =
  Term.(
    const run_lint $ file_arg $ workload_arg $ seed_unsound_arg
    $ no_effects_arg $ json_arg)

let verify_term =
  Term.(
    const run_verify $ file_arg $ workload_arg $ seed_miscompile_arg
    $ max_vars_arg $ json_arg)

let elide_term =
  Term.(
    const run_elide $ file_arg $ workload_arg $ elide_seed_unsound_arg
    $ oracle_arg $ json_arg)

let infer_term =
  Term.(
    const run_infer $ file_arg $ workload_arg $ infer_seed_unsound_arg
    $ infer_oracle_arg $ max_vars_arg $ json_arg)

let live_term =
  Term.(
    const run_live_cmd $ file_arg $ workload_arg $ live_seed_unsound_arg
    $ live_oracle_arg $ json_arg)

let par_term =
  Term.(
    const run_par_cmd $ file_arg $ workload_arg $ par_domains_arg
    $ par_seed_racy_arg $ par_oracle_arg $ json_arg)

let () =
  let doc = "static lint and translation validation of specialized code" in
  let info = Cmd.info "ickpt_lint" ~version:"1.0.0" ~doc ~exits in
  let lint_cmd =
    Cmd.v
      (Cmd.info "lint" ~doc:"spec-lint and residual lint (the default)" ~exits)
      lint_term
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "prove residual checkpoint code byte-equivalent to the generic \
            algorithm"
         ~exits)
      verify_term
  in
  let elide_cmd =
    Cmd.v
      (Cmd.info "elide"
         ~doc:
           "plan static write-barrier elision per phase (and optionally \
            verify it with the differential oracle)"
         ~exits)
      elide_term
  in
  let infer_cmd =
    Cmd.v
      (Cmd.info "infer"
         ~doc:
           "fully automatic checkpoint inference: annotation-free program \
            to verified specialized checkpointer"
         ~exits)
      infer_term
  in
  let live_cmd =
    Cmd.v
      (Cmd.info "live"
         ~doc:
           "interprocedural liveness: minimize the checkpoint set and \
            verify restore-equivalence of the minimized chain"
         ~exits)
      live_term
  in
  let par_cmd =
    Cmd.v
      (Cmd.info "par"
         ~doc:
           "interference analysis and domain-parallel execution: schedule \
            disjoint phases and iteration strips, and verify sequential \
            identity plus observed-footprint disjointness"
         ~exits)
      par_term
  in
  let code =
    Cmd.eval
      (Cmd.group ~default:lint_term info
         [ lint_cmd; verify_cmd; elide_cmd; infer_cmd; live_cmd; par_cmd ])
  in
  (* Normalize cmdliner's CLI-error code to the documented usage-error 2. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
