(* Entry point aggregating every suite; `dune runtest` runs this. *)

let () =
  Alcotest.run "jury-reproduction"
    [ ("sim", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("packet", Test_packet.suite);
      ("openflow", Test_openflow.suite);
      ("topo", Test_topo.suite);
      ("store", Test_store.suite);
      ("net", Test_net.suite);
      ("controller", Test_controller.suite);
      ("policy", Test_policy.suite);
      ("jury", Test_jury.suite);
      ("decide", Test_decide.suite);
      ("plans", Test_plans.suite);
      ("verdict-log", Test_verdict_log.suite);
      ("config", Test_config.suite);
      ("faults", Test_faults.suite);
      ("workload", Test_workload.suite);
      ("experiments", Test_experiments.suite);
      ("par", Test_par.suite);
      ("check", Test_check.suite);
      ("fuzz", Test_fuzz.suite);
      ("mc", Test_mc.suite) ]
