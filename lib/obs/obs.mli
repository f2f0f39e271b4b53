(** Telemetry: hierarchical tracing, log-bucketed histograms, a metrics
    registry, a cost-model pair store, a lock-free per-domain event journal
    and drift detectors (DESIGN.md §11, §16). Each statistic is kept once:
    the registry and the serving tenants share {!Histogram}, and the
    cost-model accuracy table is {!Cost_monitor.report} over the pairs the
    monitor holds.

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

(** {1 Log-bucketed histograms} *)

module Histogram : sig
  (** A fixed-memory distribution of samples. Each decade between the
      bounds [1e-6; 1e-5; …; 1; 10] (seconds when the samples are times) is
      split into {!sub_buckets} log-uniform sub-buckets, plus one slot for
      the samples [<= 1e-6] and one for those [> 10]. count, sum, min and
      max are exact; {!merge} is exact; {!quantile} is within
      {!rel_error} of the exact value inside the bucketed range. *)

  type t

  val sub_buckets : int
  (** Sub-buckets per decade: 64. *)

  val rel_error : float
  (** [10 ** (1 / sub_buckets) - 1 ≈ 0.0366]: the worst-case relative error
      of {!quantile} (see there). *)

  val create : unit -> t

  val add : t -> float -> unit
  (** Non-finite samples are ignored. *)

  val count : t -> int
  val sum : t -> float

  val minimum : t -> float
  (** [nan] when empty; likewise {!maximum}. *)

  val maximum : t -> float

  val quantile : t -> float -> float
  (** [quantile t q] estimates the nearest-rank [q]-quantile — the
      [ceil (q n)]-th smallest sample, rank clamped to [[1, n]] — by
      linear interpolation inside the sub-bucket that holds it, the
      bucket's edges narrowed to [[minimum, maximum]] (so a point mass is
      reported exactly); [nan] when empty. With [v] the exact value:
      [|estimate - v| <= rel_error * v] when [1e-6 < v <= 10];
      [minimum <= estimate <= 1e-6] when [v <= 1e-6]; and
      [10 <= estimate <= maximum] when [v > 10]. *)

  val merge : t -> t -> t
  (** A fresh histogram: bucket-by-bucket sum of the inputs, so every
      count, the min, the max and every {!quantile} equal those of one
      histogram fed both sample streams (the sum up to float rounding).
      Never mutates the inputs. *)

  val merge_all : t list -> t
  (** {!merge} folded over the list; a fresh empty histogram for [[]]. *)

  val decade_counts : t -> (float * int) list
  (** Non-cumulative counts per decade: [(bound, n)] for each bound
      [1e-6 .. 10] — [n] samples [v <= bound] above the previous bound —
      then [(infinity, n)] for the samples above [10]. The
      {!Metrics} exporters print these. *)
end

(** {1 Metrics registry} *)

module Metrics : sig
  type t

  val create : unit -> t

  val add : t -> string -> int -> unit
  (** Increment a counter (created at first use). *)

  val set_gauge : t -> string -> float -> unit

  val set_gauge_labeled :
    t -> string -> labels:(string * string) list -> float -> unit
  (** Set a labeled gauge series. Labels are sorted, so the same set in any
      order addresses the same series; listings and exports render the
      series as [name{k="v",...}] with label values escaped per the
      Prometheus exposition format. *)

  val escape_label_value : string -> string
  (** Prometheus exposition-format label-value escaping: backslash, double
      quote and newline. *)

  val observe : t -> string -> float -> unit
  (** Record a sample into a {!Histogram} (created at first use;
      non-finite samples are ignored). Exports show its decade buckets,
      [1e-6 .. 10] plus overflow. *)

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

(** {1 Cost-model pair store} *)

module Cost_monitor : sig
  type t

  val create : unit -> t

  val record : t -> prim:string -> predicted:float -> measured:float -> unit
  (** Log one (predicted, measured) runtime pair for a primitive. Below
      4096 pairs the per-primitive series holds every pair exactly, in
      recording order. Past that it becomes a reservoir sample (Vitter's
      Algorithm R over a deterministic per-primitive xorshift stream): each
      subsequent pair lands in a uniformly random slot with probability
      [4096/n], so the accuracy {!report} describes the process's
      {e whole} history with uniform weight rather than one arbitrary
      window. {!runs} counts every recorded pair. *)

  val series_pairs : t -> string -> (float * float) list
  (** The (predicted, measured) pairs currently held for a primitive,
      ordered by recording index — oldest first ([[]] for an unknown
      primitive): at most 4096 pairs, a uniform sample of the series
      history once past the cap. *)

  val prims : t -> string list
  (** Primitive names with at least one recorded pair, sorted. *)

  val runs : t -> string -> int
  (** Pairs ever recorded for a primitive, held or not ([0] when unknown). *)

  (** {2 The accuracy table} (the [granii stats] table — the only one) *)

  type prim_report = {
    rp_prim : string;
    rp_runs : int;       (** {!runs}: every recorded pair, held or not *)
    rp_pairs : int;      (** positive pairs currently held *)
    rp_err : float;      (** mean |ln (predicted/measured)| *)
    rp_inv : int;        (** within-primitive Kendall inversions *)
    rp_inv_pairs : int;  (** comparable pairs behind [rp_inv] *)
  }

  type report = {
    per_prim : prim_report list;  (** sorted by primitive name *)
    pooled_inv : int;    (** cross-primitive inversions — the ranking
                             signal selection depends on *)
    pooled_pairs : int;  (** positive pairs pooled across primitives *)
  }

  val report : t -> report
  (** Statistics over the held positive pairs; pairs with a non-positive
      side are counted in [rp_runs] only. Inversions count pairs distinct
      on both axes. *)

  val pp_report : Format.formatter -> report -> unit
  (** One row per primitive: runs, held pairs, mean |ln E| and inversions
      over comparable pairs; then the pooled inversion count. *)
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

(** {1 Drift detectors} *)

module Drift : sig
  (** Page–Hinkley change detection over a scalar stream: fires when the
      cumulative deviation above the running mean, minus an insensitivity
      of 0.005, exceeds 25 — a sustained upward trend against the stream's
      own history. Nothing fires before 32 observations; a firing resets
      the detector so it re-arms against the new regime. *)

  type t

  val create : string -> t

  val name : t -> string

  val observe : t -> float -> bool
  (** Feed one observation; [true] = drift fired (and the detector was
      reset). Non-finite observations are ignored. *)

  val fired : t -> int
  (** Total firings over the detector's life. *)

  val samples : t -> int
  (** Observations since the last reset. *)

  val last_stat : t -> float
  (** Page–Hinkley statistic at the last firing. *)
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

val span : t -> ?cat:string -> ?attrs:(string * string) list -> string ->
  (unit -> 'a) -> 'a
(** {!Trace.with_span} when tracing, plain call otherwise. *)

val count : t -> string -> int -> unit
val gauge : t -> string -> float -> unit
val observe : t -> string -> float -> unit

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
