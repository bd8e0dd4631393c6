let () =
  Alcotest.run "compi-repro"
    (List.concat
       [
         Test_obs.suite;
         Test_observatory.suite;
         Test_live.suite;
         Test_timeline.suite;
         Test_smt.suite;
         Test_minic.suite;
         Test_compile.suite;
         Test_mpisim.suite;
         Test_matching.suite;
         Test_coll_golden.suite;
         Test_schedule.suite;
         Test_concolic.suite;
         Test_compi.suite;
         Test_cache.suite;
         Test_parallel.suite;
         Test_checkpoint.suite;
         Test_testcase.suite;
         Test_targets.suite;
         Test_parse.suite;
         Test_replay.suite;
         Test_trajectories.suite;
       ])
