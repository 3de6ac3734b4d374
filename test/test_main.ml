(* Test entry point: every suite in one alcotest binary. *)

let () =
  Alcotest.run "wsn_availbw"
    [
      ("telemetry", Test_telemetry.suite);
      ("prng", Test_prng.suite);
      ("lp", Test_lp.suite);
      ("graph", Test_graph.suite);
      ("radio", Test_radio.suite);
      ("net", Test_net.suite);
      ("conflict", Test_conflict.suite);
      ("sched", Test_sched.suite);
      ("quantize", Test_quantize.suite);
      ("availbw", Test_availbw.suite);
      ("estimators", Test_estimators.suite);
      ("routing", Test_routing.suite);
      ("qos-routing", Test_qos_routing.suite);
      ("mac", Test_mac.suite);
      ("workload", Test_workload.suite);
      ("dynamics", Test_dynamics.suite);
      ("experiments", Test_experiments.suite);
      ("engine", Test_engine.suite);
      (* Anything that spawns a domain must come after [engine]: OCaml 5
         forbids Unix.fork once any domain has ever been created, and
         the engine suite exercises the forked pool. *)
      ("parallel", Test_parallel.suite);
      ("telemetry-domains", Test_telemetry.domain_suite);
      ("conflict-domains", Test_conflict.domain_suite);
      ("lp-domains", Test_lp.domain_suite);
      ("joint", Test_joint.suite);
      ("column-gen", Test_column_gen.suite);
      ("server", Test_server.suite);
    ]
