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

type localized_choice = {
  lchoice : choice;          (** the winning candidate, scored jointly *)
  config : Locality.config;  (** the winning layout configuration *)
  base_cost : float;
      (** the same candidate's predicted cost under {!Locality.default} —
          [predicted_cost - base_cost] is the layout gain the model claims *)
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

val select_localized :
  ?obs:Granii_obs.Obs.t -> oracle:Cost_oracle.t -> feats:Featurizer.t ->
  env:Dim.env -> iterations:int -> ?configs:Locality.config list ->
  Codegen.t -> localized_choice
(** Joint {e {ordering × format × candidate}} selection: every candidate is
    scored under every configuration in [configs] (default:
    {!Locality.all_configs}), where a configuration's score is the base
    plan prediction scaled by the {e relative} analytic layout change
    ({!Cost_oracle.plan_adjustment} over the analytic plan cost — exactly
    [base + adjustment] for the analytic model, and scale-invariant for
    learned models whose predictions live on their own scale).
    Strict-minimum with the default configuration first, so the legacy
    path wins all ties; with a profile-less oracle every adjustment is
    zero and the result coincides with {!select}. Pass a singleton
    [configs] to force a configuration (the CLI's
    [--engine locality=...]). *)

val rank_localized :
  oracle:Cost_oracle.t -> feats:Featurizer.t -> env:Dim.env ->
  iterations:int -> ?configs:Locality.config list -> Codegen.t ->
  (Codegen.ccand * Locality.config * float * float) list
(** Every (candidate, config) pair as [(cand, config, base, adjusted)],
    cheapest adjusted cost first. *)

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
