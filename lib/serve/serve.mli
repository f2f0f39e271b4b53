(** Multi-tenant inference serving over the GRANII engine (DESIGN.md §12).

    A server owns the shared model/parameter registries, a
    {!Granii_core.Plan_cache} (selection once per distinct input shape), and
    per-tenant bounded admission queues. Requests name a registered graph,
    a model and a feature matrix. The scheduler takes the oldest queued
    request across all tenants and serves it with one
    {!Granii_core.Executor.exec} run; requests are never coalesced.

    {2 Scheduler modes}

    - [workers = 0] ({b manual mode}): nothing runs until the caller pumps.
      {!submit} only enqueues; {!pump} synchronously picks and executes one
      request; {!drain} pumps until every queue is empty. With an injected
      [?clock] this makes request interleavings fully scripted — the
      deterministic concurrency harness of [test/test_serve.ml].
    - [workers > 0] ({b threaded mode}): that many OCaml 5 domains run the
      same pick/execute loop concurrently, coordinated by one mutex and two
      condition variables. Kernels run sequentially inside each worker
      (the shared domain pool is not reentrant across domains); concurrency
      comes from overlapping independent requests.

    {2 Admission control and backpressure}

    Each tenant has a bounded FIFO queue ([queue_bound] requests). A
    {!submit} beyond the bound returns [Error (Queue_full _)] — typed
    backpressure, never an exception; after {!shutdown} began it returns
    [Error Shutdown]. Everything admitted before shutdown is executed and
    answered (graceful drain). Malformed requests (unknown graph, feature
    shape mismatch) raise [Invalid_argument]: they are caller bugs, not
    load conditions.

    {2 Memory}

    Each tenant owns a private workspace arena, never shared across
    tenants. A request runs in its tenant's arena unless another worker is
    already using it, in which case it runs in a fresh one. The executor
    hands back a heap copy of every output, so a response is never
    invalidated by a later request. A request reads only that output, so
    its engine drops intermediates ([keep_intermediates = false]): each
    buffer returns to the arena after its last reader, and the executor
    fuses row epilogues into their producers
    ({!Granii_core.Executor.exec_iterations}), bitwise the unfused run.
    Every request runs on the registered graph's own vertex order, in CSR
    (DESIGN.md §9).

    {2 Telemetry}

    With a live sink: [serve.requests.submitted/completed/rejected],
    [serve.plan_cache.hits/misses/evictions], [serve.queue.depth.<tenant>]
    (gauge) and a [serve.latency] log-bucketed histogram, plus
    [serve.select] / [serve.exec] spans (spans on the scheduler's
    orchestrating path only). All sink access is serialized under the
    scheduler lock.

    {2 Production observability} (DESIGN.md §16)

    Each tenant additionally carries a fixed-memory log-bucketed
    histogram ({!Granii_obs.Obs.Histogram}, quantiles within
    {!Granii_obs.Obs.Histogram.rel_error} of exact) of its completion
    latencies, exported as [serve.latency.p50/p95/p99] labeled gauges
    ([{tenant="<name>"}]), and a Page–Hinkley drift detector
    ({!Granii_obs.Obs.Drift}) over its running p99 — a sustained latency
    regression fires a [serve.drift.fired] counter and a journal [drift]
    event tagged [serve.p99:<tenant>]. The detector reads the p99 as a
    ratio to the tenant's baseline, the upper median of its first 32 p99
    observations (taken from the 16th completion on), so its fixed
    constants mean the same for a 1 ms and a 100 ms tenant: a sustained
    doubling fires within a few dozen requests of the p99 moving, and
    ±10% jitter does not fire. When the sink has a
    journal, the server records [request], [backpressure] and [slo_breach]
    events (plan-cache hit/miss events come from
    {!Granii_core.Plan_cache} itself).
    An [slo_ms] target turns breach accounting on: per-request latency
    above the target bumps [serve.slo.breaches] and the {!stats} breach
    fields. *)

type config = {
  workers : int;       (** worker domains; [0] = manual (pump-driven) mode *)
  queue_bound : int;   (** per-tenant admission-queue capacity, >= 1 *)
  plan_cache : int;
      (** {!Granii_core.Plan_cache} capacity; [0] disables it *)
  threads : int;
      (** domain-pool width for manual-mode kernel execution (threaded
          workers always run kernels sequentially); also part of the plan
          cache key — selection is thread-count-aware *)
  profile : Granii_hw.Hw_profile.t;
      (** hardware profile of the server's analytic
          {!Granii_core.Cost_oracle}, which selection reads; its name is
          part of the plan cache key *)
  iterations : int;
      (** selection horizon: serving is single-shot inference, so the
          default [1] charges setup steps at full price *)
  param_seed : int;
      (** server-side parameters are Glorot-initialized per
          (model, K_in, K_out) from this seed and shared by every tenant:
          weights are server state *)
  slo_ms : float option;
      (** per-request latency objective in milliseconds; [Some ms] counts
          every completion slower than [ms] as a breach ([serve.slo.breaches]
          counter, [slo_breach] journal events, the {!stats} breach fields).
          [None] (the default) disables breach accounting. Must be positive
          and finite. *)
}

val default_config : config
(** [workers=0], [queue_bound=64], [plan_cache=32], [threads=1], host-CPU
    profile, [iterations=1], [param_seed=11], no SLO. *)

type reject =
  | Queue_full of { tenant : string; bound : int }
  | Shutdown

val reject_to_string : reject -> string

type response = {
  value : Granii_core.Executor.value;  (** the plan output for this request *)
  latency : float;  (** seconds from {!submit} to completion *)
  width : int;      (** always [1]: every request is its own executor run *)
}

type ticket
(** Handle to an admitted request; completed at most once. *)

type stats = {
  submitted : int;
  completed : int;
  rejected : int;
  batches : int;         (** executor runs; always [completed] *)
  sum_width : int;       (** sum of response widths; always [completed] *)
  plan_cache : Granii_core.Plan_cache.stats;
  slo_breaches : int;    (** completions slower than [slo_ms]; [0] without
                             an SLO *)
  first_breach : float option;
      (** clock timestamp of the first breach (the server's [clock], the
          same scale as request submission times) *)
}

type t

val create : ?obs:Granii_obs.Obs.t -> ?clock:(unit -> float) -> config -> t
(** [clock] (default {!Granii_hw.Timer.wall}) timestamps submissions and
    completions — inject a manual clock for scripted-latency tests.
    Raises [Invalid_argument] on a non-positive [queue_bound]/[threads],
    negative [workers]/[plan_cache], [iterations < 1] or a non-positive
    [slo_ms]. *)

val register_graph : t -> name:string -> Granii_graph.Graph.t -> unit
(** Graphs are server state, named at registration. Registration derives
    the graph's {!Granii_graph.Graph.fingerprint} and its plan operands
    ({!Granii_graph.Graph.build_plan_operands}), so no request pays for
    them.
    Re-registering a name raises [Invalid_argument]. *)

val submit :
  t -> tenant:string -> graph:string -> model:string -> k_out:int ->
  features:Granii_tensor.Dense.t -> (ticket, reject) result
(** Enqueue one inference request ([K_in] is the feature width). The tenant
    is created on first use. In threaded mode execution starts immediately;
    in manual mode nothing happens until {!pump}/{!drain}. Raises
    [Invalid_argument] on an unregistered graph, unknown model, feature row
    count not matching the graph, or [k_out < 1]. *)

val poll : t -> ticket -> response option
(** Non-blocking completion check. *)

val await : t -> ticket -> response
(** Manual mode: pumps until the ticket completes. Threaded mode: blocks on
    the completion condition. *)

val pump : t -> bool
(** Manual mode only: pick the oldest queued request across all tenants,
    execute it, fulfill its ticket. Returns [false] when every queue was
    empty. Raises [Invalid_argument] in threaded mode. *)

val drain : t -> unit
(** {!pump} until empty (manual mode only). *)

val queue_depth : t -> string -> int
(** Currently queued requests of a tenant ([0] for an unknown tenant). *)

val shutdown : t -> unit
(** Graceful drain: stop admitting ([submit] returns [Error Shutdown]),
    execute everything already admitted, join the workers (threaded mode),
    release the domain pool. Idempotent. *)

val workers : t -> int
(** The configured worker-domain count ([0] = manual mode). *)

val graph_nodes : t -> string -> int
(** Node count of a registered graph — the feature row count a client must
    provide. Raises [Invalid_argument] on an unregistered name. *)

val stats : t -> stats

val obs : t -> Granii_obs.Obs.t

val tenant_latency : t -> string -> float -> float
(** [tenant_latency t name q] — the [q]-quantile (in [0,1]) of a tenant's
    completion-latency histogram, in seconds; [nan] for an unknown tenant or
    one with no completions yet. *)

val latency_histogram : t -> Granii_obs.Obs.Histogram.t
(** Merge of every tenant's latency histogram — the server-wide latency
    distribution. The merge is exact: its count is the number of
    completions. *)

val oracle :
  t -> graph:string -> model:string -> k_out:int ->
  features:Granii_tensor.Dense.t -> Granii_core.Executor.value
(** The single-threaded reference: run this one request synchronously
    through {!Granii_core.Executor.exec} on a default engine with the
    server's own parameters and selection (bypassing queues and the plan
    cache's counters). The default engine keeps intermediates and so runs
    unfused: differential tests compare every served (fused) response
    against this. *)
