(** End-to-end GRANII facade (paper, Sec. IV, Fig. 4/5).

    Offline: IR {m \to} enumerate {m \to} prune {m \to} compiled dispatch.
    Online: featurize the input {m \to} select {m \to} execute. The offline
    result is reusable across inputs; only {!optimize} (cheap) runs per
    input. *)

val log_src : Logs.src
(** The library's log source (["granii"]); install any [Logs] reporter to
    see compile and selection decisions at [Info] level. *)

type offline_stats = {
  n_variants : int;     (** rewrite variants enumerated *)
  n_enumerated : int;   (** association trees before pruning *)
  n_pruned : int;
  n_promoted : int;
}

val compile :
  ?obs:Granii_obs.Obs.t -> ?max_trees:int ->
  ?degree_leaves:(string * Plan.degree_spec) list ->
  name:string -> Matrix_ir.expr -> Codegen.t * offline_stats
(** The offline compilation stage. [degree_leaves] marks normalization
    leaves, with [true] selecting the binned degree kernel of the host
    system. A live [obs] records a ["compile"] span with
    rewrite/enumerate/prune/codegen children and the [offline.*]
    counters mirroring {!offline_stats}. *)

type decision = {
  choice : Selector.choice;
  feats : Featurizer.t;
  overhead : float;
      (** feature-extraction + selection wall-clock seconds — the paper's
          reported runtime overhead, incurred once per input *)
}

val optimize :
  ?obs:Granii_obs.Obs.t -> oracle:Cost_oracle.t ->
  graph:Granii_graph.Graph.t -> k_in:int ->
  k_out:int -> ?iterations:int -> ?threads:int -> Codegen.t -> decision
(** The online stage (default [iterations = 100], matching the paper's
    evaluation). [threads] (default [1]) is the multicore engine's width;
    it enters the cost-model features, so selection can rank compositions
    differently at different parallelism levels. *)

val execute_with :
  ?seed:int -> engine:Engine.t ->
  timing:Executor.timing -> graph:Granii_graph.Graph.t ->
  bindings:(string * Executor.value) list -> decision -> Executor.report
(** Runs the selected plan once under a validated {!Engine.t} (see
    {!Executor.exec}). *)

val simulated_overhead :
  profile:Granii_hw.Hw_profile.t -> env:Dim.env -> float
(** GRANII's one-time runtime overhead {e as it would cost on the simulated
    hardware}: the featurizer's O(n + nnz) streaming pass plus a small
    fixed selection cost. Benches on simulated profiles charge this instead
    of the host wall-clock [overhead] (which belongs to the host CPU, not
    the modeled machine). *)
