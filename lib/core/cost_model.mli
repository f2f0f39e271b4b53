(** Per-primitive cost models (paper, Sec. IV-E) — the {e base predictor
    state} behind {!Cost_oracle}.

    The production configuration is [Learned]: one {!Granii_ml.Gbrt}
    regressor per primitive name per target hardware, trained on
    {!Profiling} data, predicting log-runtime from the featurized input.
    Two input-oblivious ablations are provided for the Table VI comparison:
    the raw analytic roofline ([Analytic]) and plain FLOP counting
    ([Flops]).

    This module only carries the trained state (and its persistence);
    {e all prediction entry points live on} {!Cost_oracle}, which wraps a
    base model with the online calibration loop. *)

type t

val train :
  ?gbrt_params:Granii_ml.Gbrt.params -> profile:Granii_hw.Hw_profile.t ->
  (string * Granii_ml.Ml_dataset.t) list -> t
(** Fits one GBRT per primitive dataset (the shape [Profiling.datasets]
    produces — spelled structurally here so the base model sits below the
    execution stack in the module order). Primitives without a dataset fall
    back to the analytic model of the same profile. *)

val analytic : Granii_hw.Hw_profile.t -> t
(** Ablation: predict with the noise-free roofline formulas directly. *)

val flops_only : t
(** Ablation: cost = FLOPs (a pure operation-count heuristic). *)

val kind : t -> [ `Learned | `Analytic | `Flops ]
(** Which base-predictor family this is — {!Cost_oracle} dispatches its
    prediction on this. *)

val find_model : t -> string -> Granii_ml.Gbrt.t option
(** The learned regressor for a primitive name; [None] on the ablations and
    on primitives that had no training dataset (the oracle then falls back
    to the analytic roofline of the same profile). *)

val name : t -> string

val profile : t -> Granii_hw.Hw_profile.t option
(** The hardware profile the model targets; [None] for {!flops_only}, which
    has no hardware terms (the locality adjustment is then zero and joint
    selection degenerates to the legacy per-primitive choice). *)

val models : t -> (string * Granii_ml.Gbrt.t) list
(** The underlying learned models ([[]] for ablations) — exposed for
    accuracy evaluation. *)

(** {1 Persistence}

    The paper's workflow trains the cost models once per target machine in
    an initialization script; production runs only load them. *)

val save : t -> string -> unit
(** [save t path] writes a [Learned] model to disk. Raises
    [Invalid_argument] on ablation models (they have no state) and
    [Sys_error] on I/O failure. *)

val load : string -> t
(** Reads a model written by {!save}. The hardware profile is resolved by
    name against {!Granii_hw.Hw_profile.all}. Raises
    [Granii_ml.Sexp_lite.Parse_error] on a malformed file or on a model
    whose feature width is not {!Featurizer.n_inputs} (it was saved by a
    build with another feature layout), and [Not_found] on an unknown
    profile name. *)
