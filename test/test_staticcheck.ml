(* Tests for the static-analysis subsystem: interprocedural effects,
   phase models, derived specialization classes, spec-lint and the
   residual-code lint — plus the agreement between the static verdicts
   and Jspec.Guard's runtime verdicts on a live heap. *)

open Ickpt_analysis
open Staticcheck

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_strings = Alcotest.(check (list string))
let check_ints = Alcotest.(check (list int))

(* ---- effect inference ---------------------------------------------------- *)

let region = Alcotest.testable Regions.pp Regions.equal

(* One global's region in a function's read or write summary. *)
let effect side r f g =
  let env = Dirty_ai.env r in
  Regions.region_of (side r f) (Option.get (Minic.Check.global_id env g))

let reads = effect Dirty_ai.func_reads
let writes = effect Dirty_ai.func_writes

let pure r f =
  Regions.Gid_map.is_empty (Dirty_ai.func_reads r f)
  && Regions.Gid_map.is_empty (Dirty_ai.func_writes r f)

(* Every global cell one run of [main] reads, noted by its store. *)
let observed_reads program =
  let read = ref [] in
  let base = Minic.Interp.hashtable_store program in
  let store =
    { base with
      gs_get = (fun x -> read := (x, 0) :: !read; base.gs_get x);
      gs_get_cell = (fun a i -> read := (a, i) :: !read; base.gs_get_cell a i) }
  in
  let s = Minic.Interp.Session.start ~store program in
  (match Minic.Ast.find_func program "main" with
  | Some main -> (
      try Minic.Interp.Session.exec_block s main.f_body
      with Minic.Interp.Session.Halted _ -> ())
  | None -> ());
  !read

(* The read analogue of I8: every cell read lies in [main_reads]. *)
let reads_covered r cells =
  let env = Dirty_ai.env r in
  List.for_all
    (fun (x, i) ->
      match Minic.Check.global_id env x with
      | Some id -> Regions.mem i (Regions.region_of (Dirty_ai.main_reads r) id)
      | None -> false)
    cells

let effects_seg_lattice () =
  (* Summaries join per global on the Regions lattice, clamped to the
     global's extent: a computed index that may reach anything covers
     exactly the array, and constant cells stay precise. *)
  Alcotest.check region "cells union" (Regions.interval 1 3)
    (Regions.join (Regions.of_list [ 1; 2 ]) (Regions.of_list [ 2; 3 ]));
  Alcotest.check region "top absorbs" Regions.top
    (Regions.join Regions.top (Regions.point 0));
  Alcotest.check region "top clamps to the extent" (Regions.interval 0 8)
    (Regions.clamp ~lo:0 ~hi:8 Regions.top);
  Alcotest.check region "cells outside the extent drop" (Regions.of_list [ 3; 7 ])
    (Regions.clamp ~lo:0 ~hi:7 (Regions.of_list [ 3; 7; 9 ]))

let effects_small_program () =
  let p = Minic.Gen.small_program () in
  let r = Dirty_ai.analyze (Minic.Check.check p) in
  check_bool "every read covered" true (reads_covered r (observed_reads p));
  check_bool "double is pure" true (pure r "double");
  (* The loop guard bounds p to 0..7: the whole of buf. *)
  Alcotest.check region "fill writes buf whole" (Regions.interval 0 7)
    (writes r "fill" "buf");
  check_bool "fill does not read a" true (Regions.is_bot (reads r "fill" "a"));
  check_bool "main writes a" false (Regions.is_bot (writes r "main" "a"));
  check_bool "main writes buf transitively" false
    (Regions.is_bot (writes r "main" "buf"));
  (* Constant-index reads stay precise even through the summary join. *)
  Alcotest.check region "main reads buf[3,7]" (Regions.of_list [ 3; 7 ])
    (reads r "main" "buf")

let effects_image_program () =
  let p = Minic.Gen.image_program ~n_filters:2 () in
  let r = Dirty_ai.analyze (Minic.Check.check p) in
  check_bool "every read covered" true (reads_covered r (observed_reads p));
  check_bool "clamp is pure" true (pure r "clamp");
  (* The nine constant-index tap stores stay a precise segment... *)
  Alcotest.check region "filter writes kernel[0..8]" (Regions.interval 0 8)
    (writes r "filter_0" "kernel");
  (* ...computed-index stores keep the loop guard's bounds (the interior
     rows of the 24x16 image), and the commit shows through the call:
     filter_0 itself never assigns image. *)
  Alcotest.check region "filter writes temp[25..358]" (Regions.interval 25 358)
    (writes r "filter_0" "temp");
  Alcotest.check region "filter writes image via commit_temp"
    (Regions.interval 25 358) (writes r "filter_0" "image");
  check_bool "filter reads height" false
    (Regions.is_bot (reads r "filter_0" "height"));
  check_bool "main accumulates filter writes" true
    ((not (Regions.is_bot (writes r "main" "kernel")))
    && not (Regions.is_bot (writes r "main" "image")))

let prop_reads_sound =
  QCheck2.Test.make ~name:"dirty-ai: may-reads cover every run's reads"
    ~count:300
    ~print:(fun seed ->
      Printf.sprintf "seed %d:\n%s" seed
        (Minic.Pp.to_string (Minic.Gen.random_program ~seed ())))
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let program = Minic.Gen.random_program ~seed () in
      let cells = observed_reads program in
      cells <> []
      && reads_covered (Dirty_ai.analyze (Minic.Check.check program)) cells)

(* ---- phase models and derivation ----------------------------------------- *)

let models_wellformed () =
  List.iter
    (fun phase ->
      let env = Phase_model.env phase in
      List.iter
        (fun g ->
          check_bool
            (Printf.sprintf "%s declares %s" (Phase_model.name phase) g)
            true
            (Minic.Check.global_id env g <> None))
        Phase_model.attr_globals)
    Phase_model.all

let derivation_flags () =
  let d_sea = Infer.derive Phase_model.Sea in
  let d_bta = Infer.derive Phase_model.Bta in
  let d_eta = Infer.derive Phase_model.Eta in
  check_bool "sea writes lists" true d_sea.Infer.writes_lists;
  check_bool "sea leaves bt alone" false d_sea.Infer.writes_bt;
  check_bool "sea leaves et alone" false d_sea.Infer.writes_et;
  check_bool "bta writes bt only" true
    (d_bta.Infer.writes_bt
    && (not d_bta.Infer.writes_lists)
    && not d_bta.Infer.writes_et);
  check_bool "eta writes et only" true
    (d_eta.Infer.writes_et
    && (not d_eta.Infer.writes_lists)
    && not d_eta.Infer.writes_bt);
  (* ETA consults binding times but must not change them. *)
  check_bool "eta reads bt" false
    (Regions.is_bot (reads d_eta.Infer.effects "main" Phase_model.g_bt))

let derived_shapes_match_shipped () =
  let attrs = Attrs.create ~n_stmts:1 in
  let klasses = Attrs.klasses attrs in
  let key = Jspec.Spec_cache.shape_key in
  List.iter
    (fun (phase, shipped) ->
      check_string
        (Printf.sprintf "derived %s == hand-written" (Phase_model.name phase))
        (key shipped)
        (key (Infer.derived_shape ~klasses phase)))
    [ (Phase_model.Sea, Attrs.sea_shape attrs);
      (Phase_model.Bta, Attrs.bta_shape attrs);
      (Phase_model.Eta, Attrs.eta_shape attrs) ]

(* ---- spec-lint ------------------------------------------------------------ *)

let shipped_declarations_clean () =
  let attrs = Attrs.create ~n_stmts:1 in
  let klasses = Attrs.klasses attrs in
  List.iter
    (fun (phase, declared) ->
      check_int
        (Printf.sprintf "%s lint-clean" (Phase_model.name phase))
        0
        (List.length (Spec_lint.check_phase ~klasses phase ~declared)))
    [ (Phase_model.Sea, Attrs.sea_shape attrs);
      (Phase_model.Bta, Attrs.bta_shape attrs);
      (Phase_model.Eta, Attrs.eta_shape attrs) ]

let wrong_declaration_unsound () =
  let attrs = Attrs.create ~n_stmts:1 in
  let klasses = Attrs.klasses attrs in
  (* The bta declaration (SEEntry subtree clean) is unsound for the sea
     phase, which writes the side-effect lists. *)
  let ds =
    Spec_lint.check_phase ~klasses Phase_model.Sea
      ~declared:(Attrs.bta_shape attrs)
  in
  check_bool "unsound detected" true (Spec_lint.has_unsound ds);
  check_bool "SEEntry flagged" true
    (List.exists
       (fun d ->
         d.Spec_lint.verdict = Spec_lint.Unsound
         && d.Spec_lint.path = "root.children[0]")
       ds);
  (* Deterministic: sorted by path. *)
  let paths = List.map (fun d -> d.Spec_lint.path) ds in
  check_strings "paths sorted" (List.sort compare paths) paths

let cross_declaration_both_verdicts () =
  let attrs = Attrs.create ~n_stmts:1 in
  let klasses = Attrs.klasses attrs in
  (* The sea declaration for the bta phase is both unsound (BT leaf
     declared clean but written) and imprecise (side-effect lists tracked
     but never written by bta). *)
  let ds =
    Spec_lint.check_phase ~klasses Phase_model.Bta
      ~declared:(Attrs.sea_shape attrs)
  in
  check_bool "has unsound" true
    (List.exists (fun d -> d.Spec_lint.verdict = Spec_lint.Unsound) ds);
  check_bool "has imprecise" true
    (List.exists (fun d -> d.Spec_lint.verdict = Spec_lint.Imprecise) ds)

(* The static verdicts must agree with Jspec.Guard at runtime: after a
   real sea run on a live heap, the derived sea declaration passes the
   guard on every root, while the declaration the lint calls unsound is
   also rejected by the guard. *)
let lint_agrees_with_guard () =
  let p = Minic.Gen.image_program ~n_filters:2 () in
  let env = Minic.Check.check p in
  let attrs = Attrs.create ~n_stmts:(Minic.Ast.stmt_count p) in
  Ickpt_runtime.Heap.clear_all_modified (Attrs.heap attrs);
  ignore (Sea.run env attrs);
  let klasses = Attrs.klasses attrs in
  let inferred = Infer.derived_shape ~klasses Phase_model.Sea in
  let roots = Attrs.roots attrs in
  check_bool "derived sea shape guards clean" true
    (List.for_all (fun r -> Jspec.Guard.check inferred r = []) roots);
  let unsound = Attrs.bta_shape attrs in
  check_bool "statically unsound shape also fails at runtime" true
    (List.exists (fun r -> Jspec.Guard.check unsound r <> []) roots)

(* ---- residual lint -------------------------------------------------------- *)

let residual_shipped_clean () =
  let attrs = Attrs.create ~n_stmts:3 in
  List.iter
    (fun (name, shape) ->
      check_int
        (Printf.sprintf "%s residual lint-clean" name)
        0
        (List.length (Residual_lint.lint_result (Jspec.Pe.specialize shape))))
    [ ("sea", Attrs.sea_shape attrs);
      ("bta", Attrs.bta_shape attrs);
      ("eta", Attrs.eta_shape attrs) ]

let residual_flags_defects () =
  let open Jspec.Cklang in
  let reasons stmts =
    List.map (fun f -> f.Residual_lint.reason) (Residual_lint.lint stmts)
  in
  check_strings "constant condition"
    [ "constant condition: a branch is unreachable" ]
    (reasons [ If (Const 1, [ Write (Const 0) ], []) ]);
  check_strings "redundant nested modified test"
    [ "redundant modified-flag test: condition is always true" ]
    (reasons
       [ If
           ( Modified (Var 0),
             [ If (Modified (Var 0), [ Write (Const 0) ], []) ],
             [] ) ]);
  check_strings "redundant reset in else branch"
    [ "redundant reset: modified flag already known clear" ]
    (reasons
       [ If (Modified (Var 0), [ Write (Const 0) ], [ Reset_modified (Var 0) ]) ]);
  check_strings "dead test" [ "dead test: both branches empty" ]
    (reasons [ If (Is_null (Var 0), [], []) ]);
  check_strings "dead binding" [ "dead store: binding v1 is never used" ]
    (reasons [ Let (1, Child (Var 0, Const 0), [ Write (Const 0) ]) ]);
  check_strings "unreachable loop" [ "unreachable loop: constant range [3, 3)" ]
    (reasons [ For (1, Const 3, Const 3, [ Write (Var 1) ]) ])

let residual_calls_kill_facts () =
  let open Jspec.Cklang in
  (* The generic routine may reset flags anywhere, so a second test on
     the same path after a call is NOT redundant. *)
  check_int "call invalidates modified facts" 0
    (List.length
       (Residual_lint.lint
          [ If
              ( Modified (Var 0),
                [ Call_generic (Child (Var 0, Const 0));
                  If (Modified (Var 0), [ Write (Const 0) ], []) ],
                [] ) ]))

(* ---- unified findings and engine preflight -------------------------------- *)

let finding_report_groups () =
  let fs =
    [ Finding.of_residual ~phase:"sea"
        { Residual_lint.path = "checkpoint[1]"; reason = "dead test" };
      Finding.of_residual ~phase:"sea"
        { Residual_lint.path = "checkpoint[0]"; reason = "dead test" };
      Finding.of_spec
        { Spec_lint.verdict = Spec_lint.Unsound;
          phase = "sea";
          path = "root.children[0]";
          klass = "SEEntry";
          reason = "declared Clean, but the phase may modify it" } ]
  in
  let sorted = Finding.sort fs in
  check_bool "errors detected" true (Finding.has_errors sorted);
  check_int "one error" 1 (Finding.count Finding.Error sorted);
  check_int "two warnings" 2 (Finding.count Finding.Warning sorted);
  let out = Format.asprintf "%a" Finding.pp_report sorted in
  check_bool "summary line" true
    (Test_util.contains_substring out "lint: 1 error(s), 2 warning(s)");
  check_bool "grouped by reason" true
    (Test_util.contains_substring out "dead test (2):")

(* Duplicate (scope, path) findings — same rule, same location, worded
   differently by different passes — collapse to one entry at the
   highest severity before grouping. *)
let finding_dedup () =
  let f severity reason =
    { Finding.severity; scope = "spec:sea"; path = "root.children[0]"; reason }
  in
  let other =
    { Finding.severity = Finding.Warning;
      scope = "residual:sea";
      path = "root.children[0]";
      reason = "dead test" }
  in
  let deduped =
    Finding.dedup
      [ f Finding.Warning "imprecise"; f Finding.Error "unsound";
        f Finding.Warning "imprecise"; other ]
  in
  check_int "one finding per (rule, location)" 2 (List.length deduped);
  check_int "highest severity kept" 1 (Finding.count Finding.Error deduped);
  let report =
    Format.asprintf "%a" Finding.pp_report
      [ f Finding.Warning "imprecise"; f Finding.Error "unsound" ]
  in
  check_bool "report counts deduped findings" true
    (Test_util.contains_substring report "lint: 1 error(s), 0 warning(s)")

(* ---- lattice properties (QCheck) ------------------------------------------ *)

(* Random generators for the static lattices: Regions (interval sets)
   and the effect summaries built from them (a may-read and a may-write
   region map, as Dirty_ai's fixpoint joins them). *)

let region_gen =
  let open QCheck2.Gen in
  oneof
    [ return Regions.bot;
      return Regions.top;
      map
        (List.fold_left
           (fun acc (lo, w) -> Regions.join acc (Regions.interval lo (lo + w)))
           Regions.bot)
        (list_size (int_range 1 5)
           (pair (int_range (-20) 40) (int_range 0 10))) ]

let effects_gen =
  let open QCheck2.Gen in
  let map_gen =
    map
      (List.fold_left (fun m (g, r) -> Regions.map_add g r m) Regions.map_empty)
      (list_size (int_range 0 4) (pair (int_range 0 5) region_gen))
  in
  pair map_gen map_gen

let effects_join (r, w) (r', w') = (Regions.map_join r r', Regions.map_join w w')

(* Equality as the fixpoint decides it: each below the other. *)
let effects_equal (r, w) (r', w') =
  let eq a b = Regions.map_leq a b && Regions.map_leq b a in
  eq r r' && eq w w'

let prop_effects_join_comm =
  QCheck2.Test.make ~name:"effects: join commutative" ~count:200
    QCheck2.Gen.(pair effects_gen effects_gen)
    (fun (a, b) -> effects_equal (effects_join a b) (effects_join b a))

let prop_effects_join_assoc =
  QCheck2.Test.make ~name:"effects: join associative" ~count:200
    QCheck2.Gen.(triple effects_gen effects_gen effects_gen)
    (fun (a, b, c) ->
      effects_equal
        (effects_join a (effects_join b c))
        (effects_join (effects_join a b) c))

let effects_empty = (Regions.map_empty, Regions.map_empty)

let prop_effects_join_idem =
  QCheck2.Test.make ~name:"effects: join idempotent, empty neutral" ~count:200
    effects_gen
    (fun a ->
      effects_equal (effects_join a a) a
      && effects_equal (effects_join a effects_empty) a)

let prop_effects_join_absorbs =
  QCheck2.Test.make ~name:"effects: fixpoint chain stabilizes (absorption)"
    ~count:100
    QCheck2.Gen.(list_size (int_range 1 8) effects_gen)
    (fun l ->
      (* the converged summary absorbs every contribution — exactly why
         the interprocedural fixpoint terminates *)
      let total = List.fold_left effects_join effects_empty l in
      List.for_all (fun x -> effects_equal (effects_join total x) total) l)

let prop_regions_join_comm =
  QCheck2.Test.make ~name:"regions: join commutative" ~count:300
    QCheck2.Gen.(pair region_gen region_gen)
    (fun (a, b) -> Regions.equal (Regions.join a b) (Regions.join b a))

let prop_regions_join_assoc =
  QCheck2.Test.make ~name:"regions: join associative" ~count:300
    QCheck2.Gen.(triple region_gen region_gen region_gen)
    (fun (a, b, c) ->
      Regions.equal
        (Regions.join a (Regions.join b c))
        (Regions.join (Regions.join a b) c))

let prop_regions_join_idem_bounds =
  QCheck2.Test.make ~name:"regions: join idempotent and an upper bound"
    ~count:300
    QCheck2.Gen.(pair region_gen region_gen)
    (fun (a, b) ->
      Regions.equal (Regions.join a a) a
      && Regions.leq a (Regions.join a b)
      && Regions.leq b (Regions.join a b)
      && Regions.leq (Regions.meet a b) a)

let prop_regions_disjoint_concrete =
  QCheck2.Test.make
    ~name:"regions: disjoint/inter agree with concrete membership" ~count:300
    QCheck2.Gen.(pair region_gen region_gen)
    (fun (a, b) ->
      (* inter is the exact set intersection and disjoint its emptiness
         test — the soundness of the interference analysis rests on
         these being concrete facts, not approximations. Sampled points
         cover the generator's interval range with margin. *)
      let points = List.init 81 (fun i -> i - 25) in
      let inter = Regions.inter a b in
      List.for_all
        (fun p ->
          Regions.mem p inter = (Regions.mem p a && Regions.mem p b))
        points
      && Regions.disjoint a b
         = not
             (List.exists (fun p -> Regions.mem p a && Regions.mem p b) points)
      && Regions.disjoint a b = Regions.is_bot inter)

let prop_regions_inter_algebra =
  QCheck2.Test.make ~name:"regions: inter algebra (meet alias, hull bound)"
    ~count:300
    QCheck2.Gen.(pair region_gen region_gen)
    (fun (a, b) ->
      let inter = Regions.inter a b in
      Regions.equal inter (Regions.meet a b)
      && Regions.equal inter (Regions.inter b a)
      && Regions.leq inter a && Regions.leq inter b
      && Regions.equal (Regions.inter a a) a
      && Regions.equal (Regions.inter a Regions.bot) Regions.bot
      && Regions.equal (Regions.join a inter) a
      (* absorption *)
      &&
      match (Regions.hull inter, Regions.hull a) with
      | None, _ -> Regions.is_bot inter
      | Some _, None -> false (* inter below a cannot outgrow it *)
      | Some hi, Some ha -> Regions.leq (Regions.of_itv hi) (Regions.of_itv ha))

let prop_regions_widen_terminates =
  QCheck2.Test.make ~name:"regions: widening chains terminate" ~count:200
    QCheck2.Gen.(list_size (int_range 1 30) region_gen)
    (fun steps ->
      (* Sweep r := widen r (join r s) over the increment stream until a
         whole pass changes nothing: the hull collapse and bound jumps
         must force a fixpoint in a handful of passes, never [budget]. *)
      let budget = 32 in
      let rec fix r n =
        let r', changed =
          List.fold_left
            (fun (r, changed) s ->
              let r' = Regions.widen r (Regions.join r s) in
              if Regions.equal r' r then (r, changed)
              else if Regions.leq r r' then (r', true)
              else raise Exit (* widening must be increasing *))
            (r, false) steps
        in
        if not changed then true else n < budget && fix r' (n + 1)
      in
      try fix Regions.bot 0 with Exit -> false)

let engine_preflight_accepts_shipped () =
  let attrs = Attrs.create ~n_stmts:2 in
  check_int "no diagnostics" 0 (List.length (Engine.preflight attrs));
  let r =
    Engine.analyze
      (Engine.Declared
         { Engine.declared with
           mode = Engine.Specialized { guard = false };
           preflight = true;
           bta_min = 3 })
      (Minic.Gen.image_program ~n_filters:2 ())
  in
  check_int "analysis ran all phases" 3 (List.length r.Engine.phases)

let suites =
  [ ( "effects",
      [ Alcotest.test_case "segment lattice" `Quick effects_seg_lattice;
        Alcotest.test_case "small program" `Quick effects_small_program;
        Alcotest.test_case "image program" `Quick effects_image_program;
        QCheck_alcotest.to_alcotest prop_reads_sound ] );
    ( "infer",
      [ Alcotest.test_case "models well-formed" `Quick models_wellformed;
        Alcotest.test_case "derivation flags" `Quick derivation_flags;
        Alcotest.test_case "derived == shipped shapes" `Quick
          derived_shapes_match_shipped ] );
    ( "spec-lint",
      [ Alcotest.test_case "shipped declarations clean" `Quick
          shipped_declarations_clean;
        Alcotest.test_case "wrong declaration unsound" `Quick
          wrong_declaration_unsound;
        Alcotest.test_case "both verdicts" `Quick cross_declaration_both_verdicts;
        Alcotest.test_case "agrees with guard" `Quick lint_agrees_with_guard ] );
    ( "residual-lint",
      [ Alcotest.test_case "shipped residual clean" `Quick residual_shipped_clean;
        Alcotest.test_case "flags defects" `Quick residual_flags_defects;
        Alcotest.test_case "calls kill facts" `Quick residual_calls_kill_facts ] );
    ( "lint-report",
      [ Alcotest.test_case "grouped report" `Quick finding_report_groups;
        Alcotest.test_case "dedup by rule+location" `Quick finding_dedup;
        Alcotest.test_case "engine preflight" `Quick
          engine_preflight_accepts_shipped ] );
    ( "lattice-properties",
      [ QCheck_alcotest.to_alcotest prop_effects_join_comm;
        QCheck_alcotest.to_alcotest prop_effects_join_assoc;
        QCheck_alcotest.to_alcotest prop_effects_join_idem;
        QCheck_alcotest.to_alcotest prop_effects_join_absorbs;
        QCheck_alcotest.to_alcotest prop_regions_join_comm;
        QCheck_alcotest.to_alcotest prop_regions_join_assoc;
        QCheck_alcotest.to_alcotest prop_regions_join_idem_bounds;
        QCheck_alcotest.to_alcotest prop_regions_disjoint_concrete;
        QCheck_alcotest.to_alcotest prop_regions_inter_algebra;
        QCheck_alcotest.to_alcotest prop_regions_widen_terminates ] ) ]
