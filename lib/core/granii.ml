let log_src = Logs.Src.create "granii" ~doc:"GRANII compile/optimize pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type offline_stats = {
  n_variants : int;
  n_enumerated : int;
  n_pruned : int;
  n_promoted : int;
}

module Obs = Granii_obs.Obs

let compile ?(obs = Obs.disabled) ?max_trees ?degree_leaves ~name expr =
  Obs.span obs ~cat:"compile" ~attrs:[ ("model", name) ] "compile" @@ fun () ->
  let n_variants =
    Obs.span obs ~cat:"compile" "rewrite" @@ fun () ->
    List.length (Rewrite.variants expr)
  in
  let forest =
    Obs.span obs ~cat:"compile" "enumerate" @@ fun () ->
    Enumerate.forest ?max_trees expr
  in
  let pruned = Obs.span obs ~cat:"compile" "prune" @@ fun () -> Prune.run forest in
  let compiled =
    Obs.span obs ~cat:"compile" "codegen" @@ fun () ->
    Codegen.compile ?degree_leaves ~name pruned
  in
  Obs.count obs "offline.variants" n_variants;
  Obs.count obs "offline.enumerated" pruned.Prune.n_enumerated;
  Obs.count obs "offline.pruned" pruned.Prune.n_pruned;
  Obs.count obs "offline.promoted" (List.length pruned.Prune.promoted);
  Log.info (fun m ->
      m "compiled %s: %d variants, %d enumerated, %d pruned, %d promoted" name
        n_variants pruned.Prune.n_enumerated pruned.Prune.n_pruned
        (List.length pruned.Prune.promoted));
  ( compiled,
    { n_variants;
      n_enumerated = pruned.Prune.n_enumerated;
      n_pruned = pruned.Prune.n_pruned;
      n_promoted = List.length pruned.Prune.promoted } )

type decision = {
  choice : Selector.choice;
  feats : Featurizer.t;
  overhead : float;
}

let featurize ?(obs = Obs.disabled) ~threads graph =
  let feats = Featurizer.extract ~threads graph in
  (match obs.Obs.trace with
  | None -> ()
  | Some t ->
      let sp = Obs.Trace.enter t ~cat:"engine" "featurize" in
      Obs.Trace.exit_ t ~dur:feats.Featurizer.extraction_time sp);
  (match obs.Obs.metrics with
  | None -> ()
  | Some m -> Obs.Metrics.observe m "featurize.time" feats.Featurizer.extraction_time);
  feats

let optimize ?obs ~oracle ~graph ~k_in ~k_out ?(iterations = 100) ?(threads = 1) compiled =
  let feats = featurize ?obs ~threads graph in
  let env =
    { Dim.n = Granii_graph.Graph.n_nodes graph;
      nnz = Granii_graph.Graph.n_edges graph + Granii_graph.Graph.n_nodes graph;
      k_in;
      k_out }
  in
  let choice = Selector.select ?obs ~oracle ~feats ~env ~iterations compiled in
  Log.info (fun m ->
      m "selected %s for %s (n=%d nnz=%d %d->%d, %d iterations): %.3e s predicted, %s"
        choice.Selector.candidate.Codegen.plan.Plan.name compiled.Codegen.model_name
        env.Dim.n env.Dim.nnz k_in k_out iterations
        choice.Selector.predicted_cost
        (if choice.Selector.used_cost_models then "cost models"
         else "embedding-size guard"));
  { choice;
    feats;
    overhead = feats.Featurizer.extraction_time +. choice.Selector.selection_time }

type localized_decision = {
  ldecision : decision;
  config : Locality.config;
  base_cost : float;
}

let optimize_localized ?obs ~oracle ~graph ~k_in ~k_out ?(iterations = 100)
    ?(threads = 1) ?configs compiled =
  let feats = featurize ?obs ~threads graph in
  let env =
    { Dim.n = Granii_graph.Graph.n_nodes graph;
      nnz = Granii_graph.Graph.n_edges graph + Granii_graph.Graph.n_nodes graph;
      k_in;
      k_out }
  in
  let lc =
    Selector.select_localized ?obs ~oracle ~feats ~env ~iterations ?configs
      compiled
  in
  let choice = lc.Selector.lchoice in
  Log.info (fun m ->
      m
        "selected %s under %s for %s (n=%d nnz=%d %d->%d, %d iterations): \
         %.3e s predicted (%.3e s legacy)"
        choice.Selector.candidate.Codegen.plan.Plan.name
        (Locality.config_to_string lc.Selector.config)
        compiled.Codegen.model_name env.Dim.n env.Dim.nnz k_in k_out iterations
        choice.Selector.predicted_cost lc.Selector.base_cost);
  { ldecision =
      { choice;
        feats;
        overhead =
          feats.Featurizer.extraction_time +. choice.Selector.selection_time };
    config = lc.Selector.config;
    base_cost = lc.Selector.base_cost }

let execute_with ?seed ~engine ~timing ~graph ~bindings decision =
  Executor.exec ?seed ~engine ~timing ~graph ~bindings
    decision.choice.Selector.candidate.Codegen.plan

let simulated_overhead ~profile ~env =
  let featurize =
    Cost_oracle.kernel_time profile
      (Granii_hw.Kernel_model.Elementwise
         { n = env.Dim.nnz + env.Dim.n; k = 1; flops_per_elt = 4. })
  in
  let selection = 2e-5 in
  featurize +. selection
