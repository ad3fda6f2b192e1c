let () =
  Alcotest.run "dart"
    [ ("zint", Test_zint.suite);
      ("qnum", Test_qnum.suite);
      ("zint diff", Diff_zint.suite);
      ("util", Test_util.suite);
      ("frontend", Test_frontend.suite);
      ("lower", Test_lower.suite);
      ("machine", Test_machine.suite);
      ("compile", Test_compile.suite);
      ("symbolic", Test_symbolic.suite);
      ("solver", Test_solver.suite);
      ("incremental", Diff_solver.suite);
      ("concolic", Test_concolic.suite);
      ("telemetry", Test_telemetry.suite);
      ("status", Test_status.suite);
      ("profile", Test_profile.suite);
      ("cover", Test_cover.suite);
      ("driver", Test_driver.suite);
      ("strategy", Test_strategy.suite);
      ("accel", Test_accel.suite);
      ("parallel", Test_parallel.suite);
      ("campaign", Test_campaign.suite);
      ("resilience", Test_resilience.suite);
      ("workloads", Test_workloads.suite);
      ("progen", Test_progen.suite) ]
