(** Training-data collection for the learned cost models (paper, Sec. V).

    Profiles every primitive over a pool of graphs and a grid of embedding
    sizes on a target hardware profile, producing one regression dataset per
    primitive name. Labels are log-runtimes from the simulated hardware
    (deterministic noisy roofline); the learned models never see the
    analytic formulas, only these samples. *)

type datasets = (string * Granii_ml.Ml_dataset.t) list
(** One dataset per primitive name. *)

val templates : Primitive.t list
(** The primitive instances profiled (every name in the vocabulary, with
    both embedding-size roles for the size-parametric ones). *)

val embedding_grid : int list
(** The profiled embedding sizes: powers of two from 32 to 2048 (paper,
    Sec. V). *)

val collect :
  ?seed:int -> ?graphs:Granii_graph.Graph.t list -> ?sizes:int list ->
  ?threads_grid:int list ->
  profile:Granii_hw.Hw_profile.t -> unit -> datasets
(** Runs the sweep. Defaults: the {!Granii_graph.Datasets.training_pool},
    {!embedding_grid} and [threads_grid = [1]] (sequential kernels only).
    Pass e.g. [~threads_grid:[1; 2; 4; 8]] to profile the multicore engine:
    each sample is featurized with its thread count so the learned models
    can rank compositions differently at different parallelism levels.
    Sample counts land in the paper's 700–8000 range per primitive. *)

val collect_measured :
  ?seed:int -> ?graphs:Granii_graph.Graph.t list -> ?sizes:int list ->
  ?runs:int -> unit -> datasets
(** Like {!collect}, but labels come from {e actually executing} every
    primitive on the host CPU and timing it on the wall clock — the clock
    the executor's measured steps and the cost monitor use ([runs] timed
    repetitions, default [3]) — the paper's real data-collection procedure applied to the
    one machine that physically exists here. Defaults to a smaller grid
    ([sizes = [8; 16; 32; 64]] and a scaled-down pool) so the sweep stays in
    seconds; a cost model trained on this data predicts host-CPU runtimes. *)
