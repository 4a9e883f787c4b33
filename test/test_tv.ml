(* Tests for the translation validator: symbolic heap families, the
   trace-equivalence decision procedure, verdicts on every shipped
   specialization class, the seeded-miscompile harness (every rejected
   mutant comes with a concrete counterexample heap whose replay
   reproduces the divergence on the real backends), and the verdict
   cache. *)

open Ickpt_analysis
open Staticcheck

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- the shape pool ------------------------------------------------------ *)

(* Every specialization class the repo ships: the three analysis phases
   and the three synthetic-application knowledge levels (on a small
   configuration so exhaustive enumeration stays cheap). *)

let small_synth_config =
  { Ickpt_synth.Synth.n_structures = 1;
    n_lists = 2;
    list_len = 2;
    n_int_fields = 2;
    pct_modified = 100;
    modified_lists = 1;
    last_only = true;
    seed = 42 }

let shipped_shapes () =
  let attrs = Attrs.create ~n_stmts:2 in
  let app = Ickpt_synth.Synth.build small_synth_config in
  [ ("sea", Attrs.sea_shape attrs);
    ("bta", Attrs.bta_shape attrs);
    ("eta", Attrs.eta_shape attrs);
    ("synth-structure", Ickpt_synth.Synth.shape_structure app);
    ("synth-modified-lists", Ickpt_synth.Synth.shape_modified_lists app);
    ("synth-last-only", Ickpt_synth.Synth.shape_last_only app) ]

(* ---- symbolic heap families ---------------------------------------------- *)

let symheap_family () =
  let attrs = Attrs.create ~n_stmts:2 in
  let sym = Symheap.of_shape (Attrs.sea_shape attrs) in
  let n = Symheap.n_vars sym in
  check_bool "sea shape has variables" true (n > 0);
  let count = ref 0 in
  Symheap.iter_valuations sym (fun _ -> incr count);
  check_int "2^n valuations" (1 lsl n) !count;
  (* Two materializations of one valuation are indistinguishable. *)
  Symheap.iter_valuations sym (fun v ->
      let a = Symheap.materialize sym v in
      let b = Symheap.materialize sym v in
      check_bool "identical twins" true (Ickpt_runtime.Deep_eq.equal a b))

(* ---- verdicts on shipped shapes ------------------------------------------ *)

(* Satellite: the verifier proves byte-trace equivalence for every
   specialization class the repo ships, both for the raw residual code
   and after Plan_opt.simplify. *)
let shipped_shapes_verified () =
  List.iter
    (fun (name, shape) ->
      List.iter
        (fun (stage, verdict) ->
          check_bool
            (Printf.sprintf "%s (%s): %s" name stage
               (Format.asprintf "%a" Tv.pp verdict))
            true (Tv.ok verdict))
        (Tv.verify_shape shape))
    (shipped_shapes ())

(* A residual program that silently does nothing is the miscompile the
   validator exists to catch. *)
let empty_residual_refuted () =
  let attrs = Attrs.create ~n_stmts:2 in
  let shape = Attrs.sea_shape attrs in
  let result = Jspec.Pe.specialize shape in
  match Tv.verify shape { result with Jspec.Pe.body = [] } with
  | Tv.Refuted { replay; _ } ->
      check_bool "replay confirms divergence" true replay.Equiv.diverged
  | v -> Alcotest.failf "expected Refuted, got %a" Tv.pp v

(* ---- seeded-miscompile harness ------------------------------------------- *)

(* All refuted mutants over the shipped shapes, with their verdicts.
   Computed once; several tests slice it. *)
let refuted_mutants =
  lazy
    (List.concat_map
       (fun (name, shape) ->
         let result = Jspec.Pe.specialize shape in
         List.filter_map
           (fun (label, mutant) ->
             match Tv.verify shape mutant with
             | Tv.Refuted { mismatch; replay } ->
                 Some (name ^ "/" ^ label, shape, mutant, mismatch, replay)
             | Tv.Verified _ | Tv.Unsupported _ -> None)
           (Tv.mutants result))
       (shipped_shapes ()))

(* Acceptance floor: at least 10 distinct seeded miscompiles rejected,
   each with a concrete counterexample heap whose replay reproduces the
   divergence end-to-end. *)
let mutants_rejected () =
  let refuted = Lazy.force refuted_mutants in
  check_bool
    (Printf.sprintf "at least 10 rejected mutants (got %d)"
       (List.length refuted))
    true
    (List.length refuted >= 10);
  List.iter
    (fun (label, _, _, _, (replay : Equiv.replay)) ->
      check_bool (label ^ ": replay diverges") true replay.Equiv.diverged)
    refuted

(* The harness seeds all four mutation kinds and the verifier rejects
   instances of each. *)
let mutation_kinds_covered () =
  let refuted = Lazy.force refuted_mutants in
  List.iter
    (fun kind ->
      check_bool ("some rejected " ^ kind ^ " mutant") true
        (List.exists
           (fun (label, _, _, _, _) ->
             Test_util.contains_substring label kind)
           refuted))
    [ "drop"; "flip"; "swap"; "clobber" ]

(* A mutant is never accepted wholesale: mutating the sea residual body
   yields at least one refutation per shape with tracked state. *)
let every_shape_yields_mutants () =
  let refuted = Lazy.force refuted_mutants in
  List.iter
    (fun (name, _) ->
      check_bool ("rejected mutant for " ^ name) true
        (List.exists
           (fun (label, _, _, _, _) ->
             Test_util.contains_substring label (name ^ "/"))
           refuted))
    (List.filter (fun (n, _) -> n <> "bta" && n <> "eta") (shipped_shapes ()))

(* ---- counterexample fidelity on all three backends ----------------------- *)

(* Run [rounds] checkpoints of [run] over [root], collecting the bytes. *)
let rounds_of run root rounds =
  List.init rounds (fun _ ->
      let d = Ickpt_stream.Out_stream.create () in
      run d root;
      Ickpt_stream.Out_stream.contents d)

(* A counterexample valuation, materialized fresh, must produce divergent
   bytes (or a residual crash, or divergent final state) under the given
   execution environment. *)
let backend_confirms (backend : Ickpt_backend.Backend.t) shape mutant valuation =
  let sym = Symheap.of_shape shape in
  let root_g = Symheap.materialize sym valuation in
  let root_s = Symheap.materialize sym valuation in
  let generic = rounds_of backend.Ickpt_backend.Backend.run_generic root_g 2 in
  match
    let runner = backend.Ickpt_backend.Backend.specialize mutant in
    rounds_of runner root_s 2
  with
  | residual ->
      residual <> generic || not (Ickpt_runtime.Deep_eq.equal root_g root_s)
  | exception _ -> true

(* Satellite: QCheck property — every counterexample heap from a mutated
   residual program produces genuinely divergent bytes on all three
   Backend environments. *)
let prop_counterexamples_diverge_on_all_backends =
  QCheck2.Test.make ~name:"mutant counterexamples diverge on every backend"
    ~count:60
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun pick ->
      let refuted = Lazy.force refuted_mutants in
      let _, shape, mutant, (mismatch : Equiv.mismatch), _ =
        List.nth refuted (pick mod List.length refuted)
      in
      List.for_all
        (fun backend ->
          backend_confirms backend shape mutant mismatch.Equiv.valuation)
        Ickpt_backend.Backend.all)

(* ---- verdict cache ------------------------------------------------------- *)

let verdict_cache_roundtrip () =
  let attrs = Attrs.create ~n_stmts:2 in
  let shape = Attrs.sea_shape attrs in
  let cache = Jspec.Spec_cache.create () in
  let plan = Jspec.Spec_cache.plan cache shape in
  let body = plan.Jspec.Pe.body in
  Alcotest.(check (option bool))
    "empty cache misses" None
    (Jspec.Spec_cache.cached_verdict cache shape body);
  Jspec.Spec_cache.set_verdict cache shape body true;
  Alcotest.(check (option bool))
    "verdict cached" (Some true)
    (Jspec.Spec_cache.cached_verdict cache shape body);
  check_int "one verdict" 1 (Jspec.Spec_cache.verdict_count cache);
  (* A different residual body for the same shape: the stale verdict must
     not answer for it, and is evicted. *)
  let changed = Jspec.Cklang.Write (Jspec.Cklang.Const 1) :: body in
  check_bool "bodies actually differ" true
    (Jspec.Spec_cache.body_digest changed <> Jspec.Spec_cache.body_digest body);
  Alcotest.(check (option bool))
    "changed body misses" None
    (Jspec.Spec_cache.cached_verdict cache shape changed);
  check_int "stale verdict evicted" 0 (Jspec.Spec_cache.verdict_count cache);
  Alcotest.(check (option bool))
    "original body also gone" None
    (Jspec.Spec_cache.cached_verdict cache shape body)

let verdict_cache_negative () =
  let attrs = Attrs.create ~n_stmts:2 in
  let shape = Attrs.bta_shape attrs in
  let cache = Jspec.Spec_cache.create () in
  let body = (Jspec.Spec_cache.plan cache shape).Jspec.Pe.body in
  Jspec.Spec_cache.set_verdict cache shape body false;
  Alcotest.(check (option bool))
    "refutations are cached too" (Some false)
    (Jspec.Spec_cache.cached_verdict cache shape body)

(* ---- engine wiring ------------------------------------------------------- *)

(* A preflight run translation-validates every phase shape; the shipped
   shapes pass, so the analysis must run normally. *)
let engine_preflight_verifies () =
  let r =
    Engine.analyze
      (Engine.Declared
         { Engine.declared with
           mode = Engine.Specialized { guard = false };
           preflight = true })
      (Minic.Gen.small_program ())
  in
  check_int "analysis ran all phases" 3 (List.length r.Engine.phases)

let suites =
  [ ( "tv",
      [ Alcotest.test_case "symbolic heap family" `Quick symheap_family;
        Alcotest.test_case "shipped shapes verified (pre/post simplify)"
          `Quick shipped_shapes_verified;
        Alcotest.test_case "empty residual refuted" `Quick
          empty_residual_refuted;
        Alcotest.test_case "mutants rejected with confirmed replays" `Slow
          mutants_rejected;
        Alcotest.test_case "all mutation kinds rejected" `Slow
          mutation_kinds_covered;
        Alcotest.test_case "rejections across the shape pool" `Slow
          every_shape_yields_mutants;
        QCheck_alcotest.to_alcotest ~long:true
          prop_counterexamples_diverge_on_all_backends;
        Alcotest.test_case "verdict cache roundtrip and eviction" `Quick
          verdict_cache_roundtrip;
        Alcotest.test_case "verdict cache keeps refutations" `Quick
          verdict_cache_negative;
        Alcotest.test_case "engine preflight verifies phases" `Quick
          engine_preflight_verifies ] ) ]
