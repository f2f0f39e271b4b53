(** The online stage: input-aware candidate selection (paper, Sec. IV-D/E).

    Given the compiled dispatch structure, the runtime input (graph features
    + embedding sizes) and the cost oracle, picks the
    minimum-predicted-cost candidate. Selection time is measured — it is the
    second runtime overhead the paper reports. *)

type choice = {
  candidate : Codegen.ccand;
  predicted_cost : float;
      (** predicted total cost over the requested iterations *)
  selection_time : float;  (** wall-clock seconds spent deciding *)
  considered : int;        (** candidates inspected after the scenario guard *)
  used_cost_models : bool; (** [false] on the embedding-size fast path *)
}

val scenario_of : k_in:int -> k_out:int -> Dim.scenario

val select :
  ?obs:Granii_obs.Obs.t -> oracle:Cost_oracle.t -> feats:Featurizer.t ->
  env:Dim.env -> iterations:int -> Codegen.t -> choice
(** Raises [Invalid_argument] if the compiled model has no candidate for the
    input's scenario (cannot happen for {!Codegen.compile} output on a
    non-empty pruning result). A live [obs] records a ["select"] span whose
    duration is exactly [selection_time], plus the [select.runs] /
    [select.candidates.considered] counters and a [select.time]
    histogram sample. *)

val rank :
  oracle:Cost_oracle.t -> feats:Featurizer.t -> env:Dim.env ->
  iterations:int -> Codegen.t -> (Codegen.ccand * float) list
(** All scenario-compatible candidates with predicted costs, cheapest first
    (diagnostic view of the same decision). *)

val measure :
  ?seed:int -> ?pool:Granii_tensor.Parallel.t -> ?obs:Granii_obs.Obs.t ->
  timing:Executor.timing -> graph:Granii_graph.Graph.t ->
  bindings:(string * Executor.value) list ->
  env:Dim.env -> iterations:int -> Codegen.t ->
  (Codegen.ccand * float) list
(** Ground-truth companion to {!rank}: {e executes} every
    scenario-compatible candidate on a concrete input and returns them
    sorted by measured (or simulated) total time at [iterations], cheapest
    first. Every step of every candidate executes and is timed on one
    plain {!Engine.t}, so a live [obs] cost monitor receives one
    (predicted, measured) pair per step of each candidate. *)

(** {2 Kept for perfbench}

    perfbench's infer, serve and train workloads call [select_localized]
    and read [lchoice] and [config], and train stores the result in a
    {!Plan_cache}; they are kept in their smallest form until a benchmark
    change drops them. *)

type localized_choice = {
  lchoice : choice;          (** {!select}'s result *)
  config : Locality.config;  (** always {!Locality.default} *)
}

val select_localized :
  ?obs:Granii_obs.Obs.t -> oracle:Cost_oracle.t -> feats:Featurizer.t ->
  env:Dim.env -> iterations:int -> ?configs:Locality.config list ->
  Codegen.t -> localized_choice
(** {!select}, wrapped. [configs] is ignored: {!Locality.config} has one
    value. *)
