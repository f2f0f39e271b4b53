(** The execution engine: one validated, immutable context for running plans.

    An engine is built once from a {!config} and owns every runtime
    capability that used to travel as independent optional arguments
    through {!Executor}: the domain pool ([threads]), the workspace arena,
    the shared-subtree cache, the locality (layout) decision and the
    liveness policy ([keep_intermediates]). Illegal combinations are
    rejected at construction with a typed {!error} instead of a mid-run
    exception, so the legality matrix lives in exactly one place
    (see DESIGN.md §10):

    {v
    combination                          verdict
    ---------------------------------------------------------------------
    threads < 1                          Invalid_threads
    cache + non-default locality         Cache_with_locality
    workspace + cache + drop             Workspace_cache_discard
    bsr format + non-identity order      Bsr_with_reorder
    workspace + cache + keep             legal: entries are epoch-pinned
                                         (copied out of the arena on insert)
    everything else                      legal
    v}

    Every engine also carries a {!Cost_oracle.t} — the single
    cost-prediction layer — whose online-calibration policy is the
    [calibration] config axis.

    The config holds only axes that change what the engine computes or
    how it allocates. Serving admission parameters live in
    [Granii_serve.Serve.config]; the telemetry sink is a resource, handed
    in through [create ?obs] like a pool or an arena. *)

type config = {
  threads : int;       (** multicore-engine width; 1 = sequential *)
  workspace : bool;    (** draw kernel outputs from a buffer-reuse arena *)
  cache : bool;        (** shared-subtree execution cache across runs *)
  locality : Locality.config;  (** graph layout the plans execute under *)
  keep_intermediates : bool;
      (** [false] lets the executor recycle each intermediate's buffer the
          moment its last reader retires (requires the workspace) *)
  calibration : Cost_oracle.calibration;
      (** online cost-model calibration policy of the engine's oracle.
          {!Cost_oracle.Off} (the default) makes the oracle a pure reader of
          its base model — predictions bitwise identical to an uncalibrated
          engine. *)
}

val default_config : config
(** [threads=1], everything off, {!Locality.default}, keep intermediates,
    [calibration=Off] — the seed executor's behavior. *)

type error =
  | Invalid_threads of int
  | Cache_with_locality of Locality.config
      (** cached values would live in a permuted vertex id space *)
  | Workspace_cache_discard
      (** workspace + cache under [keep_intermediates:false]: liveness
          recycling reclaims buffers mid-run, before insertion can pin them *)
  | Cache_graph_mismatch of { expected : string; got : string }
      (** the cache was bound to one graph and used with another *)
  | Invalid_format of string
      (** unknown sparse-format name on the locality axis (expected [csr],
          [hybrid], [bsr] or [cbm]) *)
  | Bsr_with_reorder of Locality.config
      (** [bsr] with a non-identity ordering: tiles accumulate in
          column-sorted order, but reordered matrices keep source entry
          order — see {!Locality.legal} *)

exception Error of error

val error_to_string : error -> string

type t
(** A validated engine. Immutable configuration; the owned resources
    (pool, arena, cache) are internally mutable as before. *)

type cache
(** Shared-subtree execution cache: {!Plan.step.skey} → (value, measured
    time). On a [Measure]-mode hit the stored time is charged (the work is
    genuinely skipped); on a [Simulate]-mode hit the analytic time is
    recomputed with the hitting step's own jitter seed, so caching is
    timing-transparent. The cache fingerprints the first graph it is used
    with and raises [Error (Cache_graph_mismatch _)] on any other; the
    bindings half of the (graph, bindings) validity contract remains the
    caller's. *)

val create :
  ?pool:Granii_tensor.Parallel.t -> ?workspace:Granii_tensor.Workspace.t ->
  ?cache:cache -> ?obs:Granii_obs.Obs.t -> ?oracle:Cost_oracle.t ->
  config -> (t, error) result
(** Validates and builds the context. A pool is spawned when
    [config.threads > 1]; the injection parameters let a caller hand in
    already-owned resources ({!Selector.measure} does) — an injected
    resource is never shut down by {!shutdown}, and the stored config is
    normalized to reflect it ([threads] from the injected pool's width,
    [workspace]/[cache] forced on, [calibration] from the injected oracle's
    policy). The telemetry sink is [obs] when given and
    {!Granii_obs.Obs.disabled} otherwise — the config never creates one.
    Without an injected [oracle], the engine builds one over the analytic
    host-CPU base model with the config's [calibration] policy, feeding off
    the sink's cost monitor when it has one. *)

val create_exn :
  ?pool:Granii_tensor.Parallel.t -> ?workspace:Granii_tensor.Workspace.t ->
  ?cache:cache -> ?obs:Granii_obs.Obs.t -> ?oracle:Cost_oracle.t ->
  config -> t
(** {!create}, raising {!Error} instead of returning it. *)

val default : unit -> t
(** [create_exn default_config] — allocates nothing, shuts down nothing. *)

val shutdown : t -> unit
(** Joins the pool's worker domains {e if the engine spawned them}; injected
    pools are left running. Idempotent. *)

(** {2 Accessors} *)

val config : t -> config
val threads : t -> int
val pool : t -> Granii_tensor.Parallel.t option
val workspace : t -> Granii_tensor.Workspace.t option
val cache : t -> cache option
val locality : t -> Locality.config
val keep_intermediates : t -> bool

val obs : t -> Granii_obs.Obs.t
(** The telemetry sink; {!Granii_obs.Obs.disabled} unless one was injected
    through [create ?obs]. *)

val oracle : t -> Cost_oracle.t
(** The engine's cost-prediction layer. Executor telemetry feeds it the
    per-step (predicted, measured) pairs when calibration is on. *)

val calibration : t -> Cost_oracle.calibration

(** {2 Cache operations} (used by {!Executor}) *)

val cache_create : unit -> cache

val cache_stats : cache -> int * int
(** [(hits, misses)] since creation. *)

val cache_bind_graph : cache -> Granii_graph.Graph.t -> unit
(** Record the graph on first use; raise [Error (Cache_graph_mismatch _)]
    when the cache was already bound to a structurally different graph. *)

val cache_find : cache -> string -> (Dispatch.value * float) option
(** Look a structural key up, counting the hit or miss. *)

val cache_insert : t -> string -> Dispatch.value -> float -> unit
(** Store a computed value. When the engine also has a workspace arena the
    value's float backing is {e copied out} first (epoch-pinning), so the
    entry survives the arena reclaim of later runs — one extra copy per
    cache miss is the cost of the workspace x cache combination. No-op on a
    cache-less engine. *)

(** {2 Rendering and parsing} (the CLI's [--engine] surface) *)

val describe : t -> string

val describe_config : config -> string
(** E.g. ["threads=4,workspace=on,cache=off,locality=identity+csr,intermediates=keep,calibration=off"].
    Round-trips exactly through {!config_of_string}. *)

val config_of_string : string -> (config, string) result
(** Parse a comma-separated [key=value] spec; omitted keys keep their
    {!default_config} values, [""] and ["default"] are the default config.
    Keys: [threads] (int), [workspace]/[cache] (on|off),
    [locality] (<identity|degree|bfs|rcm>+<csr|hybrid|bsr|cbm>),
    [intermediates] (keep|drop), [calibration] (off|affine). Any other key
    is a parse error. An unknown format name reports the {!Invalid_format}
    message. *)
