(** Telemetry: hierarchical tracing, a metrics registry, a cost-model
    accuracy monitor, a lock-free per-domain event journal, streaming
    quantile sketches and drift detectors (DESIGN.md §11, §16).

    An {!t} is the sink an {!Granii_core.Engine.t} carries; each of its
    four components is independently optional, and {!disabled} — the
    default — makes every recording entry point a cheap no-op (one option
    match, no allocation), so an untelemetered run is indistinguishable
    from the pre-observability executor.

    Span and metric recording entry points are for the {e orchestrating}
    thread only (like the workspace arena). The {!Journal} is the one
    exception: any domain may record into it concurrently (each writes its
    own ring). *)

(** {1 Hierarchical span recorder} *)

module Trace : sig
  type t

  type span
  (** A handle to an open span; mutable, owned by the recorder. *)

  val create : unit -> t

  val enter : t -> ?cat:string -> string -> span
  (** Open a span named [name] (category default ["granii"]) at the current
      stack depth, timestamped with {!Granii_hw.Timer.wall}. *)

  val exit_ : t -> ?attrs:(string * string) list -> ?dur:float -> span -> unit
  (** Close the span: duration from the wall clock, or [dur] seconds when
      the caller already measured the bracket (the executor does — spans
      and [per_step] report entries then agree exactly). Any still-open
      descendant is closed first, so the recorder stays balanced even when
      an exception unwound past a manual {!enter}. Closing an
      already-closed span is a no-op. *)

  val with_span :
    t -> ?cat:string -> ?attrs:(string * string) list -> string ->
    (unit -> 'a) -> 'a
  (** Exception-safe bracket; a raising body still closes the span (with an
      ["error"] attribute) before the exception propagates. *)

  val add_attrs : span -> (string * string) list -> unit

  val count : t -> int
  (** Spans recorded so far. *)

  val open_spans : t -> int
  (** Currently unbalanced spans; [0] after every bracket closed. *)

  val aggregate : t -> (string * int * float) list
  (** Per-name [(count, total seconds)], sorted by descending total. *)

  val to_chrome_json : t -> string
  (** Chrome [trace_event] JSON (complete ["X"] events, microsecond
      timestamps relative to the trace epoch) — loadable by
      [chrome://tracing] and Perfetto. *)

  val to_folded : t -> string
  (** Folded flamegraph lines (["stack;frames self-us"]) for
      [flamegraph.pl] / speedscope. *)
end

(** {1 Metrics registry} *)

module Metrics : sig
  type t

  val create : unit -> t

  val add : t -> string -> int -> unit
  (** Increment a counter (created at first use). *)

  val set_gauge : t -> string -> float -> unit

  val add_labeled : t -> string -> labels:(string * string) list -> int -> unit
  (** Increment a labeled counter series. Labels are sorted, so the same
      set in any order addresses the same series; listings and exports
      render the series as [name{k="v",...}] with label values escaped per
      the Prometheus exposition format. *)

  val set_gauge_labeled :
    t -> string -> labels:(string * string) list -> float -> unit

  val escape_label_value : string -> string
  (** Prometheus exposition-format label-value escaping: backslash, double
      quote and newline. *)

  val observe : t -> string -> float -> unit
  (** Record a sample into a histogram (log-spaced seconds buckets,
      [1e-6 .. 10] plus overflow). *)

  val counter_value : t -> string -> int
  (** [0] for an unknown counter. *)

  val gauge_value : t -> string -> float option

  val hist_stats : t -> string -> (int * float * float * float) option
  (** [(count, sum, min, max)] of a histogram. *)

  val counters : t -> (string * int) list
  (** Sorted by name; likewise {!gauges} and {!histograms}. *)

  val gauges : t -> (string * float) list

  val histograms : t -> (string * (int * float * float * float)) list

  val to_json : t -> string

  val to_prometheus : t -> string
  (** Prometheus text exposition format; names are sanitized to
      [[a-zA-Z0-9_]] and prefixed ["granii_"]. Every metric family gets
      exactly one [# HELP] and one [# TYPE] line ahead of its samples, and
      label values are escaped with {!escape_label_value}. *)
end

(** {1 Cost-model accuracy monitor} *)

module Cost_monitor : sig
  type t

  val create : unit -> t

  val record : t -> prim:string -> predicted:float -> measured:float -> unit
  (** Log one (predicted, measured) runtime pair for a primitive. Below
      4096 pairs the per-primitive series holds every pair exactly, in
      recording order. Past that it becomes a reservoir sample (Vitter's
      Algorithm R over a deterministic per-primitive xorshift stream): each
      subsequent pair lands in a uniformly random slot with probability
      [4096/n], so the summary statistics (and the
      {!Granii_core.Cost_oracle} calibration feed) describe the process's
      {e whole} history with uniform weight rather than one arbitrary
      window. [n] counts every recorded run. *)

  val series_pairs : t -> string -> (float * float) list
  (** The (predicted, measured) pairs currently held for a primitive,
      ordered by recording index — oldest first — so "newest third"
      holdout splits stay meaningful ([[]] for an unknown primitive). This
      is the calibration feed: at most 4096 pairs, a uniform sample of the
      series history once past the cap. *)

  val prims : t -> string list
  (** Primitive names with at least one recorded pair, sorted. *)

  type summary = {
    prim : string;
    n : int;                    (** recorded runs *)
    mean_abs_log_err : float;
        (** mean [|ln (predicted / measured)|] over positive pairs;
            [0] = perfect, [ln 2 ≈ 0.69] = off by 2x on average *)
    rank_inversions : int;
        (** discordant pairs: the model predicted [a] faster than [b] but
            [b] measured faster — the quantity selection actually depends
            on (Kendall-tau numerator) *)
    pairs_compared : int;       (** pairs with distinct values on both axes *)
  }

  val summaries : t -> summary list
  (** Sorted by primitive name. *)

  val to_json : t -> string

  val pp : Format.formatter -> t -> unit
end

(** {1 Event journal} *)

module Journal : sig
  (** An always-on, lock-free, per-domain bounded event journal. Each
      writer domain owns a fixed ring of [capacity] records (parallel
      unboxed arrays), so recording an event is a handful of array stores
      and a counter bump — no allocation, no lock, no contention with
      other domains. Once a ring is full the oldest record is overwritten;
      per-domain sequence numbers are monotonic from 0, so a drained
      snapshot shows exactly which records were lost. *)

  type kind =
    | Step                   (** one measured plan-step execution *)
    | Request                (** one serving request fulfilled *)
    | Plan_cache_hit
    | Plan_cache_miss
    | Plan_cache_invalidate  (** oracle version bump invalidated cached plans *)
    | Calibrate              (** a calibration pass ran (tag: accepted/rejected) *)
    | Drift                  (** a drift detector fired *)
    | Backpressure           (** a submit was rejected with [Queue_full] *)
    | Slo_breach             (** a request latency exceeded the SLO *)
    | Mark                   (** free-form marker *)

  val kind_to_string : kind -> string

  type entry = {
    e_seq : int;     (** per-domain monotonic sequence number, from 0 *)
    e_domain : int;  (** writer domain id *)
    e_t : float;     (** {!Granii_hw.Timer.wall} at record time *)
    e_kind : kind;
    e_tag : string;
    e_v : float;
  }

  type t

  val create : ?capacity:int -> unit -> t
  (** Per-domain ring capacity, default 1024 records (min 8). *)

  val capacity : t -> int

  val record : t -> kind -> tag:string -> v:float -> unit
  (** Safe from any domain; each domain writes only its own ring. *)

  val total : t -> int
  (** Events ever recorded, across domains. *)

  val dropped : t -> int
  (** Events lost to ring overwrite, across domains. *)

  val entries : t -> entry list
  (** Advisory snapshot of the currently-held records, merged across
      domains by timestamp (ties: domain, then sequence). Writers running
      concurrently with the drain may overwrite the oldest slots; drain
      after writers quiesce when exact contents matter. *)

  val kind_counts : t -> (string * int) list
  (** [(kind, count)] over the held records, zero kinds omitted. *)

  val to_jsonl : t -> string
  (** One JSON object per line:
      [{"seq":…,"domain":…,"t":…,"kind":…,"tag":…,"v":…}]. *)

  val pp_entry : Format.formatter -> entry -> unit
end

(** {1 Streaming quantile sketches} *)

module Sketch : sig
  (** P² (Jain & Chlamtac 1985) streaming quantile estimation: five
      markers per tracked quantile (p50/p90/p95/p99), fixed memory, O(1)
      per observation, no stored samples. Exact for the first five
      observations. Estimation error is not worst-case bounded; on smooth
      unimodal distributions it is empirically within a few percent
      relative (tolerances pinned by the tests, documented in DESIGN.md
      §16). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  (** Non-finite samples are ignored. *)

  val count : t -> int
  val minimum : t -> float
  val maximum : t -> float

  val quantile : t -> float -> float
  (** [nan] when empty. Tracked quantiles (0.5, 0.9, 0.95, 0.99) read
      their estimator directly; other probabilities interpolate between
      the tracked estimates and the observed min/max. *)

  val merge : t -> t -> t
  (** A merged view built by stratified replay through each input's
      piecewise-linear inverse CDF (≤ 512 synthetic samples, proportional
      to the inputs' counts and never more than an input's own count, so
      small merges keep an honest {!count}). Approximate — tails are
      linearized — and never mutates the inputs. *)

  val merge_all : t list -> t
  (** Folds {!merge}; a singleton list returns the sketch itself (treat
      the result as read-only). *)
end

(** {1 Drift detectors} *)

module Drift : sig
  (** Change detection over a scalar stream (|log error|, p99 latency, …)
      combining two tests: Page–Hinkley (cumulative deviation above the
      running mean minus [delta] exceeds [lambda]) for sustained upward
      trends, and a sustained-level test (EWMA above [level] for
      [patience] consecutive observations) for streams that are wrong from
      the start — e.g. a mis-anchored hardware profile, which never shows
      a trend. Either firing counts as drift; the detector resets itself
      afterwards so it re-arms against the corrected stream. *)

  type t

  val create :
    ?delta:float -> ?lambda:float -> ?level:float -> ?patience:int ->
    ?min_samples:int -> ?alpha:float -> string -> t
  (** [delta]: PH insensitivity (default 0.005). [lambda]: PH threshold
      (default 25.; [infinity] disables). [level]: level threshold
      (default 0. = disabled). [patience]: consecutive EWMA exceedances to
      fire (default 32). [min_samples]: no firing before this many
      observations (default 32). [alpha]: EWMA smoothing (default 0.1). *)

  val name : t -> string

  val observe : t -> float -> bool
  (** Feed one observation; [true] = drift fired (and the detector was
      reset). Non-finite observations are ignored. *)

  val fired : t -> int
  (** Total firings over the detector's life. *)

  val samples : t -> int
  (** Observations since the last reset. *)

  val last_stat : t -> float
  (** Statistic value at the last firing. *)
end

(** {1 The sink} *)

type t = {
  trace : Trace.t option;
  metrics : Metrics.t option;
  costmon : Cost_monitor.t option;
  journal : Journal.t option;
}

val disabled : t
(** All four components off; every helper below is a no-op. *)

val create :
  ?trace:bool -> ?metrics:bool -> ?costmon:bool -> ?journal:bool ->
  ?journal_capacity:int -> unit -> t
(** A live sink; each component defaults to on. *)

val enabled : t -> bool

val tracing : t -> bool

val span : t -> ?cat:string -> ?attrs:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** {!Trace.with_span} when tracing, plain call otherwise. *)

val count : t -> string -> int -> unit
val gauge : t -> string -> float -> unit
val observe : t -> string -> float -> unit
val record_cost : t -> prim:string -> predicted:float -> measured:float -> unit

val event : t -> Journal.kind -> tag:string -> v:float -> unit
(** Journal an event when the journal is on. Hot paths should guard on
    [t.journal <> None] before computing the tag/value, so a disabled sink
    costs nothing. *)

(** {1 JSON checker / reader} *)

module Json : sig
  type value =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of value list
    | Obj of (string * value) list

  val parse : string -> (value, string) result
  (** Accepts exactly RFC 8259 JSON, building a {!value}; the error names
      the failing byte offset. All numbers land in [Num]. Used by
      [bin/bench_gate.ml] to diff bench artifacts against committed
      baselines. *)

  val validate : string -> (unit, string) result
  (** [parse] with the value dropped. Used by the exporter tests and the CI
      telemetry checker. *)

  val member : string -> value -> value option
  (** Field lookup on an [Obj]; [None] otherwise. *)
end
