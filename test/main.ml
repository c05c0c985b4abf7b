let () =
  Alcotest.run "qsense"
    [ ("util", Test_util.suite);
      ("sim", Test_sim.suite);
      ("smr", Test_smr.suite);
      ("membership", Test_membership.suite);
      ("hp_set", Test_hp_set.suite);
      ("bags", Test_bags.suite);
      ("list", Test_list.suite);
      ("sets", Test_sets.suite);
      ("robustness", Test_robustness.suite);
      ("verify", Test_verify.suite);
      ("stack", Test_stack.suite);
      ("queue", Test_queue.suite);
      ("workload", Test_workload.suite);
      ("differential", Test_differential.suite);
      ("explorer", Test_explorer.suite);
      ("explorer_pool", Test_explorer_pool.suite);
      ("obs", Test_obs.suite);
      ("latency", Test_latency.suite);
      ("properties", Test_properties.suite);
      ("real", Test_real.suite);
      ("service", Test_service.suite);
      ("rivals", Test_rivals.suite);
      ("skiplist", Test_skiplist.suite);
      ("hashtable", Test_hashtable.suite)
    ]
