module Dense = Granii_tensor.Dense
module Core = Granii_core

type history = {
  losses : float array;
  train_accuracy : float;
  final_params : Layer.params;
}

let train ?(seed = 0) ?mask ?engine ~epochs ~optimizer ~plan ~graph
    ~features ~labels ~params () =
  if epochs <= 0 then invalid_arg "Trainer.train: epochs must be positive";
  let engine =
    match engine with
    | Some e ->
        (* the backward pass reads every forward intermediate *)
        if not (Core.Engine.keep_intermediates e) then
          invalid_arg
            "Trainer.train: the engine must keep intermediates (autodiff \
             reads them in the backward pass)";
        e
    | None -> Core.Engine.default ()
  in
  let losses = Array.make epochs 0. in
  let params = ref params in
  let last_logits = ref None in
  for epoch = 0 to epochs - 1 do
    let bindings = Layer.bindings ~graph ~h:features !params in
    (* Each epoch's forward pass reuses the previous epoch's buffers (the
       engine's arena is reclaimed on entry to [exec]). The epoch body —
       loss, backward, optimizer step — only reads this epoch's values: the
       logits are the caller's own copy, and the intermediates stay valid
       until the next run. *)
    let forward =
      Core.Executor.exec ~seed:(seed + epoch) ~engine
        ~timing:(Core.Executor.Simulate Granii_hw.Hw_profile.cpu) ~graph ~bindings plan
    in
    let logits =
      match forward.Core.Executor.output with
      | Core.Executor.Vdense d -> d
      | Core.Executor.Vsparse _ | Core.Executor.Vdiag _ ->
          invalid_arg "Trainer.train: plan output is not dense logits"
    in
    last_logits := Some logits;
    let loss, dlogits = Loss.softmax_cross_entropy ?mask ~logits ~labels () in
    losses.(epoch) <- loss;
    let grads =
      Autodiff.backward_wrt ~wrt:(List.map fst !params) ~plan ~graph ~bindings
        ~forward ~seed:dlogits
    in
    params := Optimizer.step optimizer !params grads
  done;
  let train_accuracy =
    match !last_logits with
    | Some logits -> Loss.accuracy ?mask ~logits ~labels ()
    | None -> 0.
  in
  { losses; train_accuracy; final_params = !params }

type minibatch_history = {
  epoch_losses : float array;
  batch_losses : float array array;
  final_params : Layer.params;
  n_batches : int;
  cache_stats : Core.Plan_cache.stats;
  sample_time : float;
  featurize_time : float;
  selection_time : float;
  exec_time : float;
  stall_time : float;
  wall_time : float;
}

module Obs = Granii_obs.Obs
module Timer = Granii_hw.Timer

(* The loader domain cannot touch the sink (sinks are orchestrator-thread
   only), so it reports durations and the orchestrator retro-dates the
   spans here. *)
let retro_span obs ?(attrs = []) name dur =
  match obs.Obs.trace with
  | None -> ()
  | Some tr ->
      let s = Obs.Trace.enter tr name in
      Obs.Trace.exit_ tr ~attrs ~dur s

let train_minibatch ?(seed = 0) ?mask ?engine ?plan_cache
    ?(mode = Loader.Pipelined) ?classes ~fanouts ~epochs ~batch_size
    ~optimizer ~oracle ~compiled ~graph ~features ~labels ~params () =
  let engine =
    match engine with
    | Some e ->
        if not (Core.Engine.keep_intermediates e) then
          invalid_arg
            "Trainer.train_minibatch: the engine must keep intermediates \
             (autodiff reads them in the backward pass)";
        e
    | None -> Core.Engine.default ()
  in
  let obs = Core.Engine.obs engine in
  let cache =
    match plan_cache with
    | Some c -> c
    | None ->
        Core.Plan_cache.create ~obs ~metric_prefix:"train.plan_cache"
          ~capacity:16 ()
  in
  let classes =
    match classes with
    | Some c -> c
    | None -> 1 + Array.fold_left max 0 labels
  in
  let k_in = features.Dense.cols in
  let loader =
    Loader.create ~seed ?mask ~mode ~fanouts ~batch_size ~epochs ~graph
      ~features ~labels ()
  in
  let per_epoch = Loader.batches_per_epoch loader in
  let batch_losses = Array.init epochs (fun _ -> Array.make per_epoch 0.) in
  let params = ref params in
  let sample_time = ref 0. and featurize_time = ref 0. in
  let selection_time = ref 0. and exec_time = ref 0. in
  let last_stall = ref 0. in
  let result, wall_time =
    Timer.measure_wall (fun () ->
        Fun.protect
          ~finally:(fun () -> Loader.shutdown loader)
          (fun () ->
            let rec consume gidx =
              match Loader.next loader with
              | None -> ()
              | Some b ->
                  let stall = Loader.stall_time loader -. !last_stall in
                  last_stall := Loader.stall_time loader;
                  if stall > 0. then retro_span obs "train.stall" stall;
                  retro_span obs "train.sample"
                    ~attrs:
                      [ ("batch", string_of_int gidx);
                        ( "nodes",
                          string_of_int (Array.length b.Loader.labels) ) ]
                    b.Loader.sample_time;
                  retro_span obs "train.featurize" b.Loader.featurize_time;
                  sample_time := !sample_time +. b.Loader.sample_time;
                  featurize_time := !featurize_time +. b.Loader.featurize_time;
                  let sub = b.Loader.sample.Granii_graph.Sampling.subgraph in
                  let n_sub = Granii_graph.Graph.n_nodes sub in
                  let env =
                    { Core.Dim.n = n_sub;
                      nnz = Granii_graph.Graph.n_edges sub + n_sub;
                      k_in;
                      k_out = classes }
                  in
                  let key =
                    Core.Plan_cache.key_of
                      ~graph_fp:(Core.Plan_cache.bucketed_fingerprint sub)
                      ~model:compiled.Core.Codegen.model_name ~k_in
                      ~k_out:classes
                      ~hw:(Core.Cost_oracle.name oracle)
                      ~threads:(Core.Engine.threads engine)
                      ~locality:(Core.Engine.locality engine)
                  in
                  let lc, select_t =
                    Timer.measure_wall (fun () ->
                        match Core.Plan_cache.find cache key with
                        | Some lc -> lc
                        | None ->
                            let lc =
                              Core.Selector.select_localized ~oracle
                                ~feats:b.Loader.feats ~env ~iterations:1
                                ~configs:[ Core.Engine.locality engine ]
                                compiled
                            in
                            Core.Plan_cache.add cache key lc;
                            lc)
                  in
                  retro_span obs "train.select" select_t;
                  selection_time := !selection_time +. select_t;
                  let plan =
                    lc.Core.Selector.lchoice.Core.Selector.candidate
                      .Core.Codegen.plan
                  in
                  let bindings =
                    Layer.bindings ~graph:sub ~h:b.Loader.features !params
                  in
                  let (loss, grads, forward_t), exec_t =
                    Timer.measure_wall (fun () ->
                        let forward =
                          Core.Executor.exec ~seed:(seed + gidx) ~engine
                            ~timing:Core.Executor.Measure ~graph:sub ~bindings
                            plan
                        in
                        let logits =
                          match forward.Core.Executor.output with
                          | Core.Executor.Vdense d -> d
                          | Core.Executor.Vsparse _ | Core.Executor.Vdiag _ ->
                              invalid_arg
                                "Trainer.train_minibatch: plan output is not \
                                 dense logits"
                        in
                        let loss, dlogits =
                          Loss.softmax_cross_entropy ~mask:b.Loader.mask
                            ~logits ~labels:b.Loader.labels ()
                        in
                        (* the parameters' gradients only: the features'
                           would cost a GEMM per batch and nothing reads it *)
                        let grads =
                          Autodiff.backward_wrt ~wrt:(List.map fst !params)
                            ~plan ~graph:sub ~bindings ~forward ~seed:dlogits
                        in
                        ( loss,
                          grads,
                          forward.Core.Executor.setup_time
                          +. forward.Core.Executor.iteration_time ))
                  in
                  (* per-batch (predicted, measured) pair — the plan-level
                     training feed of the calibration loop. [predicted] is the
                     raw analytic plan cost (uncorrected, so the fit targets
                     base -> measured); [measured] is the forward execution
                     only, which is what the plan prediction models. *)
                  (if Core.Cost_oracle.calibration oracle <> Core.Cost_oracle.Off
                   then
                     let prof =
                       match Core.Cost_oracle.profile oracle with
                       | Some p -> p
                       | None -> Granii_hw.Hw_profile.cpu
                     in
                     let predicted =
                       Core.Cost_oracle.analytic_plan
                         ~threads:(Core.Engine.threads engine) prof ~env
                         ~iterations:1 plan
                     in
                     Core.Cost_oracle.observe oracle
                       ~prim:("plan:" ^ plan.Core.Plan.name) ~predicted
                       ~measured:forward_t);
                  retro_span obs "train.exec" exec_t;
                  exec_time := !exec_time +. exec_t;
                  Obs.count obs "train.batches" 1;
                  batch_losses.(b.Loader.epoch).(b.Loader.index) <- loss;
                  params := Optimizer.step optimizer !params grads;
                  consume (gidx + 1)
            in
            consume 0))
  in
  ignore result;
  let epoch_losses =
    Array.map
      (fun row ->
        Array.fold_left ( +. ) 0. row /. float_of_int (Array.length row))
      batch_losses
  in
  { epoch_losses;
    batch_losses;
    final_params = !params;
    n_batches = epochs * per_epoch;
    cache_stats = Core.Plan_cache.stats cache;
    sample_time = !sample_time;
    featurize_time = !featurize_time;
    selection_time = !selection_time;
    exec_time = !exec_time;
    stall_time = Loader.stall_time loader;
    wall_time }

let inference_time ~profile ~graph ~env ?(iterations = 100) ?(seed = 0) plan =
  ignore graph;
  let setup, iter = Core.Executor.estimate ~seed ~profile ~env plan in
  Core.Executor.total_time ~setup ~iteration:iter ~iterations

let training_time ~profile ~graph ~env ?(iterations = 100) ?(seed = 0) plan =
  let setup, iter = Core.Executor.estimate ~seed ~profile ~env plan in
  let bwd = Autodiff.backward_time ~profile ~graph ~env ~seed plan in
  Core.Executor.total_time ~setup ~iteration:(iter +. bwd) ~iterations
