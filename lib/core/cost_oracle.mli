(** The cost oracle: one self-correcting layer for every runtime cost
    prediction (DESIGN.md §15).

    Prediction used to be smeared across four modules — the analytic
    roofline ({!Granii_hw.Kernel_model}), the per-primitive GBRTs
    ({!Cost_model}), the layout adjustment (formerly in {!Locality}) and the
    report-only accuracy monitor ({!Granii_obs.Obs.Cost_monitor}). An oracle
    wraps a base predictor (analytic | learned | flops) and closes the loop:
    live (predicted, measured) pairs flow into its monitor via {!observe},
    and every [fit_every] observations a calibration pass fits a
    per-primitive affine correction in log space. A candidate model is swapped in only when it passes the A/B guard: it must
    strictly reduce Kendall rank inversions (ties broken by mean |log
    error|) on a held-out slice of the newest pairs — the quantity plan
    selection actually depends on. Every accepted swap pushes a versioned
    snapshot, so a regressing oracle can be rolled back.

    With calibration {!Off} — the default — an oracle is a pure reader of
    its base model: no correction entries exist and every prediction is
    bitwise identical to the pre-oracle [Cost_model] code paths. *)

(** {1 Calibration policy} *)

type calibration =
  | Off     (** never fit; predictions are exactly the base model's *)
  | Affine  (** per-primitive [exp (a + b ln p)] corrections *)

val calibration_to_string : calibration -> string
(** ["off"] | ["affine"] — the [--calibration] flag's rendering. *)

val calibration_of_string : string -> calibration option

(** {1 Construction} *)

type t

val of_model :
  ?calibration:calibration -> ?fit_every:int -> ?min_pairs:int ->
  ?obs:Granii_obs.Obs.t -> ?monitor:Granii_obs.Obs.Cost_monitor.t ->
  ?drift:Granii_obs.Obs.Drift.t -> Cost_model.t -> t
(** Wrap a base predictor. [calibration] defaults to {!Off}; [fit_every]
    (default [64]) is how many {!observe} calls separate automatic
    calibration passes; [min_pairs] (default [8]) is the fewest positive
    pairs a primitive needs before it participates in a fit. [monitor] is
    the pair store — inject a telemetry sink's live
    {!Granii_obs.Obs.Cost_monitor}, which the executor fills with per-step
    pairs, to calibrate from execution telemetry (then call {!calibrate}); a
    fresh private monitor is created otherwise. [obs] (default
    {!Granii_obs.Obs.disabled}) receives the [calibrate.*] spans and
    counters plus the journal's drift/calibrate events. [drift] overrides
    the drift detector watching the corrected |log error| stream; by
    default a calibrating oracle gets
    [Obs.Drift.create ~level:(log 2.) "oracle.logerr"] (sustained 2x
    average misprediction fires), and an oracle with [calibration = Off]
    gets none. A firing triggers an immediate out-of-cadence calibration
    pass (see {!observe}). Raises [Invalid_argument] when [fit_every < 1]
    or [min_pairs < 4]. *)

val analytic : Granii_hw.Hw_profile.t -> t
(** [of_model (Cost_model.analytic p)] — the noise-free roofline ablation. *)

val flops_only : unit -> t
(** [of_model Cost_model.flops_only] — the FLOP-count ablation. *)

val load : string -> t
(** [of_model (Cost_model.load path)]. *)

val save : t -> string -> unit
(** Persist the {e base} model ({!Cost_model.save}; raises
    [Invalid_argument] on ablation bases). Corrections are runtime state
    and are not persisted. *)

(** {1 Accessors} *)

val base : t -> Cost_model.t

val calibration : t -> calibration

val profile : t -> Granii_hw.Hw_profile.t option
(** The base model's hardware profile; [None] for the flops ablation. *)

val name : t -> string
(** The base model's name, suffixed ["#v<version>"] once a calibration pass
    has been accepted — so plan caches keyed by model name are naturally
    invalidated when the oracle's predictions change. *)

val version : t -> int
(** Accepted calibration passes so far; [0] = pristine base model. *)

val monitor : t -> Granii_obs.Obs.Cost_monitor.t
(** The pair store {!observe} feeds (physically the injected monitor when
    one was given). *)

val observed : t -> int
(** Total {!observe} calls. *)

val drift : t -> Granii_obs.Obs.Drift.t option
(** The drift detector watching the corrected |log error| stream, when the
    oracle has one. *)

val correction : t -> string -> (float * float) option
(** The current [(a, b)] log-space correction for a primitive name, if a
    calibration pass installed one. *)

val corrected : t -> prim:string -> float -> float
(** Apply the current correction for [prim] to a raw base prediction:
    [exp (a +. b *. ln p)], or [p] unchanged when no correction exists (or
    [p <= 0]). *)

(** {1 Prediction} *)

val predict : t -> Featurizer.t -> env:Dim.env -> Primitive.t -> float
(** Predicted runtime of one primitive instance: the base model (learned
    GBRT, analytic roofline with the featurized thread count, or FLOP
    count), then the affine correction. With no correction this is
    bit-for-bit the old [Cost_model.predict]. *)

val predict_plan :
  t -> Featurizer.t -> env:Dim.env -> iterations:int -> Plan.t -> float
(** Setup steps once, per-iteration steps [iterations] times, each through
    {!predict}; then the plan-level correction (keyed ["plan:<name>"], fed
    by the trainer's per-batch stream) if one exists. *)

val analytic_plan :
  threads:int -> Granii_hw.Hw_profile.t -> env:Dim.env -> iterations:int ->
  Plan.t -> float
(** The noise-free analytic plan cost, uncorrected — the reference scale the
    selector's relative layout adjustment is computed against. *)

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

(** {1 The feedback loop} *)

val observe : t -> prim:string -> predicted:float -> measured:float -> unit
(** Feed one (predicted, measured) pair — [predicted] must be the {e raw}
    (uncorrected) prediction. The pair lands in {!monitor}. Every [fit_every] calls, when calibration is not {!Off}, a calibration
    pass runs inline. Each positive pair also feeds the oracle's drift
    detector with the {e corrected} |log error|; when the detector fires,
    a [calibrate.drift.fired] counter and a journal [Drift] event are
    emitted and a calibration pass runs immediately, without waiting for
    the [fit_every] cadence. *)

type pass_outcome = {
  fitted_prims : string list;   (** primitives with enough pairs to fit *)
  holdout_pairs : int;          (** size of the pooled holdout slice *)
  current_inversions : int;     (** pooled Kendall inversions, current model *)
  candidate_inversions : int;   (** same, under the candidate corrections *)
  current_err : float;          (** pooled mean |ln (corrected/measured)| *)
  candidate_err : float;
  accepted : bool;              (** did the candidate pass the A/B guard *)
  version_after : int;
}

val calibrate : t -> pass_outcome option
(** Run one calibration pass now (also called automatically by {!observe}).
    [None] when no primitive has [min_pairs] positive pairs yet. Holdout =
    the newest third of each participating primitive's pairs (at least 2,
    at most 64 per primitive), pooled across primitives; the candidate is
    installed only if [accepted]. Emits [calibrate.passes] /
    [calibrate.accepted] / [calibrate.rejected] counters, the
    [calibrate.version] gauge and a ["calibrate.pass"] span on the oracle's
    [obs] sink. *)

(** {1 Versioned snapshots} *)

type snapshot = {
  snap_version : int;  (** the version the snapshot captured *)
  snap_note : string;
  snap_corrections : (string * (float * float)) list;
}

val snapshots : t -> snapshot list
(** Pre-swap states of every accepted pass, newest first (bounded: the 8
    most recent are kept). *)

val rollback : t -> bool
(** Restore the newest snapshot (the state before the last accepted pass),
    consuming it; the version still advances, so caches never confuse the
    rolled-back oracle with the state it replaced. [false] when there is no
    snapshot. *)

(** {1 Reporting} (the [granii stats] accuracy table — the only one: the
    pair store keeps no statistics of its own) *)

type prim_report = {
  rp_prim : string;
  rp_runs : int;          (** {!Granii_obs.Obs.Cost_monitor.runs}: every
                              recorded pair, held or not *)
  rp_pairs : int;         (** positive pairs currently held *)
  rp_base_err : float;    (** mean |ln (raw/measured)| *)
  rp_corrected_err : float;  (** same, after the current correction *)
  rp_base_inv : int;      (** within-primitive inversions, raw *)
  rp_corrected_inv : int;
  rp_inv_pairs : int;     (** comparable pairs behind the inversion counts *)
  rp_corrected : bool;    (** a correction is installed *)
}

type report = {
  per_prim : prim_report list;  (** sorted by primitive name *)
  pooled_base_inv : int;    (** cross-primitive inversions, raw — the
                                ranking signal selection depends on *)
  pooled_corrected_inv : int;
  pooled_pairs : int;
  report_version : int;
}

val report : t -> report

val pp_report : Format.formatter -> report -> unit
(** One row per primitive: runs, held pairs, mean |ln E| raw and corrected,
    raw inversions over comparable pairs ([b.inv/pairs]), corrected
    inversions and whether a correction is installed; then the pooled
    inversion counts. *)
