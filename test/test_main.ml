let () =
  Alcotest.run "facile"
    (Test_x86.suite @ Test_codec.suite @ Test_graph.suite @ Test_core.suite
     @ Test_db.suite @ Test_stats.suite @ Test_sim.suite @ Test_baselines.suite
     @ Test_obs.suite @ Test_supervise.suite @ Test_net.suite
     @ Test_check.suite @ Test_store.suite @ Test_shard_cache.suite
     @ Test_serve_hit.suite @ Test_cli.suite @ Test_pin.suite
     @ Test_block.suite @ Test_precedence.suite @ Test_text.suite)
