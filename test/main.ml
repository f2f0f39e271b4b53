let () =
  Alcotest.run "granii"
    [ ("tensor", Test_tensor.suite);
      ("sparse", Test_sparse.suite);
      ("graph", Test_graph.suite);
      ("hw", Test_hw.suite);
      ("ml", Test_ml.suite);
      ("core-ir", Test_core_ir.suite);
      ("enumerate-prune", Test_enumerate.suite);
      ("plan-executor", Test_plan_exec.suite);
      ("selection", Test_selection.suite);
      ("mp-systems", Test_mp_systems.suite);
      ("gnn", Test_gnn.suite);
      ("persistence", Test_persistence.suite);
      ("stack-multihead", Test_stack_multihead.suite);
      ("parallel", Test_parallel.suite);
      ("engine", Test_engine.suite);
      ("obs", Test_obs.suite);
      ("observability", Test_observability.suite);
      ("memory", Test_memory.suite);
      ("locality", Test_locality.suite);
      ("serve", Test_serve.suite);
      ("minibatch", Test_minibatch.suite);
      ("train-path", Test_train_path.suite);
      ("calibration", Test_calibration.suite);
      ("integration", Test_integration.suite) ]
