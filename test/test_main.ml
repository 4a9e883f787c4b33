let () =
  Alcotest.run "icheckpoint"
    (Test_stream.suites @ Test_runtime.suites @ Test_core.suites
   @ Test_jspec.suites @ Test_minic.suites @ Test_analysis.suites
   @ Test_synth.suites @ Test_backend.suites @ Test_extras.suites
   @ Test_more.suites @ Test_staticcheck.suites @ Test_tv.suites
   @ Test_faultsim.suites @ Test_elide.suites @ Test_store.suites
   @ Test_infer.suites @ Test_live.suites @ Test_par.suites
   @ Test_service.suites @ Test_bench_doc.suites)
