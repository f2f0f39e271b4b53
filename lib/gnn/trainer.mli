(** End-to-end training: optimized forward pass + default backward pass.

    Mirrors how GRANII improves training in the paper (Sec. VI-C): the
    forward pass executes whichever plan the caller provides (GRANII's
    selection or a baseline default), while gradients flow through the same
    plan's reverse pass. *)

type history = {
  losses : float array;         (** per epoch *)
  train_accuracy : float;       (** final, on the mask *)
  final_params : Layer.params;
}

val train :
  ?seed:int -> ?mask:bool array ->
  ?engine:Granii_core.Engine.t ->
  epochs:int -> optimizer:Optimizer.t ->
  plan:Granii_core.Plan.t -> graph:Granii_graph.Graph.t ->
  features:Granii_tensor.Dense.t -> labels:int array ->
  params:Layer.params -> unit -> history
(** Full-graph training for node classification. The plan's output must be
    dense [N]x[classes] logits. Losses are recorded per epoch; training is
    deterministic given [seed]. [?engine] runs every forward pass under a
    validated {!Granii_core.Engine.t} (default {!Granii_core.Engine.default});
    it must keep intermediates ({!Granii_gnn.Autodiff} reads them in the
    backward pass — raises [Invalid_argument] otherwise). The backward
    pass asks {!Autodiff.backward_wrt} for the parameters' gradients only,
    bitwise those of the full pass. Every epoch's
    forward pass reuses the previous epoch's buffers from the engine's
    arena — numerically identical, allocation-free in steady state. *)

(** {1 Mini-batch training} *)

type minibatch_history = {
  epoch_losses : float array;  (** mean of the epoch's batch losses *)
  batch_losses : float array array;  (** [epochs] x [batches_per_epoch] *)
  final_params : Layer.params;
  n_batches : int;
  cache_stats : Granii_core.Plan_cache.stats;
  sample_time : float;     (** total wall seconds in the layered sampler *)
  featurize_time : float;  (** total row gather + feature extraction *)
  selection_time : float;  (** total plan-cache lookup + selection *)
  exec_time : float;       (** total forward + loss + backward *)
  stall_time : float;      (** total consumer wait on the loader domain *)
  wall_time : float;       (** whole-run wall seconds *)
}

val train_minibatch :
  ?seed:int -> ?mask:bool array -> ?engine:Granii_core.Engine.t ->
  ?plan_cache:Granii_core.Plan_cache.t -> ?mode:Loader.mode ->
  ?classes:int ->
  fanouts:int list -> epochs:int -> batch_size:int ->
  optimizer:Optimizer.t -> oracle:Granii_core.Cost_oracle.t ->
  compiled:Granii_core.Codegen.t -> graph:Granii_graph.Graph.t ->
  features:Granii_tensor.Dense.t -> labels:int array ->
  params:Layer.params -> unit -> minibatch_history
(** Pipelined mini-batch training. Each epoch shuffles the [mask]-selected
    nodes (seeded), cuts them into seed batches of [batch_size], draws every
    batch's layered neighborhood ({!Granii_graph.Sampling.layered_fanout}
    with [fanouts]) and trains on the sampled subgraph: the loss masks
    everything but the seed rows, and the backward pass computes the
    parameters' gradients only ({!Autodiff.backward_wrt}: no feature
    gradient, bitwise the full pass's parameter gradients), which
    {!Optimizer.step} applies per batch. Per batch, the executed plan comes from selection
    over [compiled] through [plan_cache] (default: a fresh 16-entry cache),
    keyed on {!Granii_core.Plan_cache.bucketed_fingerprint} of the sampled
    subgraph — structurally similar batches reuse the selected plan, so
    selection amortizes to near zero. (The key includes
    {!Granii_core.Cost_oracle.name}, which changes on every accepted
    calibration pass — stale plans are never served from a recalibrated
    oracle.)

    When the oracle's calibration is not {!Granii_core.Cost_oracle.Off},
    every batch feeds one plan-level (predicted, measured) pair into the
    oracle via {!Granii_core.Cost_oracle.observe} — predicted is the raw
    analytic plan cost, measured the forward execution time — so mini-batch
    training {e is} the calibration loop's data stream.

    [mode] defaults to {!Loader.Pipelined}: a dedicated domain samples and
    featurizes batch [i+1] while batch [i] executes. Batches are pure
    functions of [(seed, mask, fanouts, batch_size, batch index)], so
    {!Loader.Sequential} produces bitwise-identical losses and parameters —
    the pipeline is a pure wall-clock optimization.

    Per-batch [train.sample] / [train.featurize] / [train.select] /
    [train.exec] / [train.stall] spans land in the engine's
    {!Granii_obs.Obs} trace
    (loader-side durations are retro-dated on the orchestrator thread).

    The engine must keep intermediates (autodiff reads them) — raises
    [Invalid_argument] otherwise. Raises [Invalid_argument] on bad
    [fanouts], [batch_size], [epochs] or an all-[false] mask. *)

val inference_time :
  profile:Granii_hw.Hw_profile.t -> graph:Granii_graph.Graph.t ->
  env:Granii_core.Dim.env -> ?iterations:int -> ?seed:int ->
  Granii_core.Plan.t -> float
(** Simulated forward time over [iterations] (default 100): setup once plus
    per-iteration work (paper's inference mode). *)

val training_time :
  profile:Granii_hw.Hw_profile.t -> graph:Granii_graph.Graph.t ->
  env:Granii_core.Dim.env -> ?iterations:int -> ?seed:int ->
  Granii_core.Plan.t -> float
(** Simulated forward + backward time over [iterations] (paper's training
    mode: only the forward half is affected by composition choice). *)
