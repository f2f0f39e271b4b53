(** The execution engine: one validated, immutable context for running plans.

    An engine is built once from a {!config} and owns every runtime
    capability that used to travel as independent optional arguments
    through {!Executor}: the domain pool ([threads]), the workspace arena,
    the locality (layout) decision and the liveness policy
    ([keep_intermediates]). Every engine executes from its arena (one
    allocation model, not an axis); the arena keeps only its last run's
    size classes ({!Granii_tensor.Workspace.reclaim}), and the executor
    hands the caller a heap copy of each output. An invalid config is
    rejected at construction with a typed {!error} instead of a mid-run
    exception. Only the thread count can be invalid: every ordering
    composes with every sparse format ({!Locality.all_configs}), so no pair
    of axes is illegal together (see DESIGN.md §10). {!Invalid_format} is the parse-time error of
    {!config_of_string} for an unknown format name.

    An engine executes; it does not predict. Selection is the caller's,
    through a {!Cost_oracle.t} of its own. With a live sink the executor
    records one (predicted, measured) pair per measured step into the
    sink's cost monitor, priced by the analytic host-CPU profile.

    The config holds only axes that change what the engine computes or
    how it allocates. Serving admission parameters live in
    [Granii_serve.Serve.config]; the telemetry sink is a resource, handed
    in through [create ?obs] like a pool or an arena. *)

type config = {
  threads : int;       (** multicore-engine width; 1 = sequential *)
  locality : Locality.config;  (** graph layout the plans execute under *)
  keep_intermediates : bool;
      (** [true] when the caller reads the intermediates (the trainer's
          backward pass does); [false] lets the executor recycle each
          intermediate's buffer the moment its last reader retires *)
}

val default_config : config
(** [threads=1], {!Locality.default}, keep intermediates — the seed
    executor's results. *)

type error =
  | Invalid_threads of int
  | Invalid_format of string
      (** unknown sparse-format name on the locality axis (expected [csr],
          or [hybrid]) *)

exception Error of error

val error_to_string : error -> string

type t
(** A validated engine. Immutable configuration; the owned resources
    (pool, arena) are internally mutable. *)

val create :
  ?pool:Granii_tensor.Parallel.t -> ?workspace:Granii_tensor.Workspace.t ->
  ?obs:Granii_obs.Obs.t -> config -> (t, error) result
(** Validates and builds the context. A pool is spawned when
    [config.threads > 1]; the injection parameters let a caller hand in
    already-owned resources ({!Selector.measure} does) — an injected
    resource is never shut down by {!shutdown}, and the stored config's
    [threads] is normalized to the injected pool's width. Without an injected
    [workspace] the engine creates its own arena; engines may share an
    injected one (a serving tenant's) one run at a time, never at once.
    The telemetry sink is [obs] when given and
    {!Granii_obs.Obs.disabled} otherwise — the config never creates one. *)

val create_exn :
  ?pool:Granii_tensor.Parallel.t -> ?workspace:Granii_tensor.Workspace.t ->
  ?obs:Granii_obs.Obs.t -> config -> t
(** {!create}, raising {!Error} instead of returning it. *)

val default : unit -> t
(** [create_exn default_config]: a sequential engine with a fresh, empty
    arena; spawns no domain, shuts down nothing. *)

val shutdown : t -> unit
(** Joins the pool's worker domains {e if the engine spawned them}; injected
    pools are left running. Idempotent. *)

(** {2 Accessors} *)

val config : t -> config
val threads : t -> int
val pool : t -> Granii_tensor.Parallel.t option
val workspace : t -> Granii_tensor.Workspace.t
val locality : t -> Locality.config
val keep_intermediates : t -> bool

val obs : t -> Granii_obs.Obs.t
(** The telemetry sink; {!Granii_obs.Obs.disabled} unless one was injected
    through [create ?obs]. *)

(** {2 Rendering and parsing} (the CLI's [--engine] surface) *)

val describe : t -> string

val describe_config : config -> string
(** E.g. ["threads=4,locality=identity+csr,intermediates=keep"].
    Round-trips exactly through {!config_of_string}. *)

val config_of_string : string -> (config, string) result
(** Parse a comma-separated [key=value] spec; omitted keys keep their
    {!default_config} values, [""] and ["default"] are the default config.
    Keys: [threads] (int >= 1),
    [locality] (<identity|degree|bfs|rcm>+<csr|hybrid>),
    [intermediates] (keep|drop). Any other key is a parse error. A thread
    count below 1 reports the {!Invalid_threads} message and an unknown
    format name the {!Invalid_format} one, so a parsed config always
    passes {!create}'s validation. *)
