open Bechamel
open Ickpt_synth
open Ickpt_backend
open Ickpt_analysis

(* One compound structure with one dirty element per invocation: the unit
   of work every figure scales up by population size. *)
let synth_unit ~last_only =
  let cfg =
    { Synth.default_config with
      Synth.n_structures = 1;
      list_len = 5;
      n_int_fields = 10;
      modified_lists = 1;
      last_only }
  in
  let t = Synth.build cfg in
  Synth.base_checkpoint t;
  let root = List.hd (Synth.roots t) in
  let victim =
    (* The last element of list 0 — legal under every declaration. *)
    let rec last (e : Ickpt_runtime.Model.obj) =
      match e.Ickpt_runtime.Model.children.(0) with
      | None -> e
      | Some next -> last next
    in
    match root.Ickpt_runtime.Model.children.(0) with
    | Some head -> last head
    | None -> assert false
  in
  (t, root, victim)

let sink = Ickpt_stream.Out_stream.sink ()

let synth_test ~name ~last_only runner_of =
  let t, root, victim = synth_unit ~last_only in
  let runner = runner_of t in
  Test.make ~name
    (Staged.stage (fun () ->
         Ickpt_runtime.Barrier.touch victim;
         runner sink root))

let attr_test ~name runner_of =
  let attrs = Attrs.create ~n_stmts:1 in
  Ickpt_runtime.Heap.clear_all_modified (Attrs.heap attrs);
  let root = List.hd (Attrs.roots attrs) in
  let runner = runner_of attrs in
  Test.make ~name
    (Staged.stage (fun () ->
         ignore
           (Attrs.set_bt attrs 0
              (1 - Attrs.get_bt attrs 0));
         runner sink root))

let spec shape = Jspec.Compile.residual (Jspec.Pe.specialize shape)

(* The write path, per layer, on one compound structure: a generic full
   checkpoint into a buffered stream reset per run (so the buffer is
   grown once and reused), the chunk split of that body, the resolve of
   its chunks against a pack (in a simulated filesystem) that already
   holds them all, so every chunk is a hit compared in place, and the
   coding of its directory. *)
let write_tests () =
  let open Ickpt_cas in
  let t, root, _ = synth_unit ~last_only:false in
  let roots = [ root ] in
  let d = Ickpt_stream.Out_stream.create () in
  Ickpt_core.Checkpointer.full_many d roots;
  let body = Ickpt_stream.Out_stream.contents d in
  let chunks = Chunk.split t.Synth.schema body in
  let vfs = Ickpt_faultsim.Sim.vfs (Ickpt_faultsim.Sim.create ()) in
  let pack = Pack.open_ ~vfs "micro.pack" in
  ignore
    (Epochs.commit Epochs.plain vfs ~path:"micro.idx" pack
       [ { Epochs.chain = Epochs.chain ~file:"micro.idx" ~id:0 t.Synth.schema [];
           kind = Ickpt_core.Segment.Full;
           epoch = 0;
           roots = [];
           body = Split chunks } ]
      : _ Epochs.committed);
  let records = List.map (fun (c : Chunk.t) -> c.records) chunks in
  [ Test.make ~name:"write-full-many"
      (Staged.stage (fun () ->
           Ickpt_stream.Out_stream.reset d;
           Ickpt_core.Checkpointer.full_many d roots));
    Test.make ~name:"write-chunk-split"
      (Staged.stage (fun () -> ignore (Chunk.split t.Synth.schema body)));
    Test.make ~name:"write-resolve-full"
      (Staged.stage (fun () -> ignore (Pack.resolve pack chunks)));
    Test.make ~name:"write-code-dir"
      (Staged.stage (fun () -> ignore (Epoch_index.code_dir records))) ]

let tests () =
  Test.make_grouped ~name:"icheckpoint"
    ([ attr_test ~name:"table1-bta-incremental" (fun _ d o ->
          Ickpt_core.Checkpointer.incremental d o);
      attr_test ~name:"table1-bta-specialized" (fun attrs ->
          spec (Attrs.bta_shape attrs));
      synth_test ~name:"fig7-full" ~last_only:false (fun _ d o ->
          Ickpt_core.Checkpointer.full_tree d o);
      synth_test ~name:"fig7-incremental" ~last_only:false (fun _ d o ->
          Ickpt_core.Checkpointer.incremental d o);
      synth_test ~name:"fig8-generic" ~last_only:false (fun _ ->
          Backend.native.Backend.run_generic);
      synth_test ~name:"fig8-spec-structure" ~last_only:false (fun t ->
          spec (Synth.shape_structure t));
      synth_test ~name:"fig9-spec-modified-lists" ~last_only:false (fun t ->
          spec (Synth.shape_modified_lists t));
      synth_test ~name:"fig10-spec-last-only" ~last_only:true (fun t ->
          spec (Synth.shape_last_only t));
      synth_test ~name:"fig11a-interp-generic" ~last_only:true (fun _ ->
          Backend.interp.Backend.run_generic);
      synth_test ~name:"fig11a-interp-spec" ~last_only:true (fun t ->
          Backend.interp.Backend.specialize
            (Jspec.Pe.specialize (Synth.shape_last_only t)));
      synth_test ~name:"fig11b-ic-generic" ~last_only:true (fun _ ->
          Backend.inline_cache.Backend.run_generic);
      synth_test ~name:"fig11b-ic-spec" ~last_only:true (fun t ->
          Backend.inline_cache.Backend.specialize
            (Jspec.Pe.specialize (Synth.shape_last_only t)));
      synth_test ~name:"table2-native-generic" ~last_only:false (fun _ ->
          Backend.native.Backend.run_generic);
      synth_test ~name:"table2-native-spec" ~last_only:false (fun t ->
          spec (Synth.shape_modified_lists t)) ]
    @ write_tests ())

let run ?(quota = 0.25) ppf =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg [ instance ] (tests ()) in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Format.fprintf ppf "@.== Bechamel micro-benchmarks (ns per unit) ==@.";
  List.iter
    (fun (name, ns) -> Format.fprintf ppf "%-42s %12.1f ns@." name ns)
    rows
