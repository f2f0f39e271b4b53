(** The cost oracle: the one prediction layer every runtime cost estimate
    goes through (DESIGN.md §15).

    Prediction used to be smeared across three modules — the analytic
    roofline ({!Granii_hw.Kernel_model}), the per-primitive GBRTs
    ({!Cost_model}) and the layout adjustment (formerly in {!Locality}).
    An oracle reads a base predictor (analytic | learned | flops), as the
    paper's online runtime does: a candidate's cost is the sum of its
    primitives' predictions. It keeps no state of its own, so every
    prediction is the base model's, bit for bit. How far those predictions
    sit from measured time is observability, not selection: the
    executor's per-step pairs land in {!Granii_obs.Obs.Cost_monitor},
    whose {!Granii_obs.Obs.Cost_monitor.report} is the accuracy table. *)

(** {1 Construction} *)

type t

val of_model : Cost_model.t -> t
(** Read a base predictor. *)

val analytic : Granii_hw.Hw_profile.t -> t
(** [of_model (Cost_model.analytic p)] — the noise-free roofline ablation. *)

val flops_only : unit -> t
(** [of_model Cost_model.flops_only] — the FLOP-count ablation. *)

val load : string -> t
(** [of_model (Cost_model.load path)]. *)

(** {1 Accessors} *)

val profile : t -> Granii_hw.Hw_profile.t option
(** The base model's hardware profile; [None] for the flops ablation. *)

val name : t -> string
(** {!Cost_model.name} of the base model — the plan caches' model key. *)

(** {1 Prediction} *)

val predict : t -> Featurizer.t -> env:Dim.env -> Primitive.t -> float
(** Predicted runtime of one primitive instance under the base model:
    learned GBRT, analytic roofline with the featurized thread count, or
    FLOP count. *)

val predict_plan :
  t -> Featurizer.t -> env:Dim.env -> iterations:int -> Plan.t -> float
(** Setup steps once, per-iteration steps [iterations] times, each through
    {!predict}. *)

val analytic_plan :
  threads:int -> Granii_hw.Hw_profile.t -> env:Dim.env -> iterations:int ->
  Plan.t -> float
(** The noise-free analytic plan cost — the reference scale the selector's
    relative layout adjustment is computed against. *)

val kernel_time :
  ?threads:int -> ?gather_discount:float -> Granii_hw.Hw_profile.t ->
  Granii_hw.Kernel_model.kernel -> float
(** Direct passthrough to the analytic kernel model — the only sanctioned
    spelling outside [lib/hw] (CI bans direct [Kernel_model.time] calls
    elsewhere, so every analytic estimate is attributable to this layer). *)

(** {1 Layout adjustment} (moved from [Locality]; the structural parts —
    {!Locality.layout_kernels}, {!Locality.gather_discount} — remain there) *)

val layout_time :
  ?threads:int -> Granii_hw.Hw_profile.t -> n:int -> nnz:int ->
  Locality.config -> float
(** Analytic cost of the one-time {!Locality.layout_kernels} passes. *)

val kernel_delta :
  ?threads:int -> Granii_hw.Hw_profile.t -> Granii_graph.Graph_features.t ->
  Locality.config -> Granii_hw.Kernel_model.kernel -> float
(** Predicted cost change (localized minus baseline) for one kernel; nonzero
    only for the gather-bound g-kernels (SpMM, SDDMM). *)

val plan_adjustment :
  ?threads:int -> Granii_hw.Hw_profile.t ->
  stats:Granii_graph.Graph_features.t -> env:Dim.env -> iterations:int ->
  Locality.config -> Plan.t -> float
(** Additive adjustment to the analytic plan cost for running the plan under
    a locality configuration: layout setup plus phase-weighted kernel
    deltas. Exactly [0.] for {!Locality.default}. *)
