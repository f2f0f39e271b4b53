(** Plan execution, with real or simulated timing.

    The executor is the thin top of the execution stack
    ({!Dispatch} < {!Engine} < [Executor]): one dispatch loop,
    {!exec_iterations}, resolves arguments, routes each step through
    {!Dispatch.exec} and accumulates times; {!exec} is its single-iteration
    case. Setup steps run first, then the per-iteration steps, each in plan
    order. Everything configurable — pool, arena, liveness policy —
    lives in the {!Engine.t} the caller constructs once. Every plan runs
    on the input's own vertex order, in CSR (DESIGN.md §9).

    Every step is {e always} executed for real (so numerical results can be
    cross-checked between candidates) and timed; what differs is the
    clock:

    - [Measure]: host wall-clock per step — the "real CPU" mode;
    - [Simulate profile]: each step is charged the analytic
      {!Granii_hw.Kernel_model} time for its instantiated kernels on the
      given hardware profile, with deterministic jitter (at the engine's
      thread count). This is the substitute for the paper's A100/H100
      testbeds (see DESIGN.md).

    [estimate] skips execution entirely and just sums predicted kernel times
    — used by the large parameter sweeps of the benches.

    {2 Memory model}

    Every kernel output comes from the engine's arena
    ({!Engine.workspace}), bitwise identical to the allocating kernels.
    {!exec} reclaims the arena on entry. The report's [output] is the
    caller's own heap copy; the [intermediates] stay arena-backed until the engine's next run —
    copy any you keep. With [keep_intermediates = false], the
    executor additionally recycles each intermediate's buffer the moment
    its last reader retires ({!Liveness}; setup values only in the last
    iteration). The default keeps them alive — {!Granii_gnn.Autodiff}
    reads every intermediate in its backward pass.

    {2 Row-epilogue fusion}

    With [keep_intermediates = false] and [Measure] timing the executor
    also fuses: a [Row_broadcast(d, ·)] and/or [Dense_map] relu, leaky relu
    or sigmoid chain whose input is the dense output of a [Gemm] or [Spmm]
    runs inside that producer, which finishes each output row with the
    chain while the row is in cache ({!Granii_tensor.Dense.epilogue}). A
    link joins only if the value it reads has no other reader and is not
    the plan output, it runs in the producer's phase, and a broadcast's [d]
    is computed before the producer runs. The output is bitwise the unfused one: each element sees the
    same operations in the same order. The plan is not rewritten, so
    [per_step] still has one entry per plan step: an absorbed step reads
    [0.0] and its time is inside its producer's entry. Absorbed steps open
    no trace span and record no journal or metrics observation, and the
    cost monitor's (predicted, measured) pair is recorded for the producer
    only, pricing the producer's own kernels against a time that includes
    the chain. Keep-intermediates engines and [Simulate] timing never
    fuse: the first hand their intermediates to the caller, and the second
    prices every plan step as its own kernels. *)

type value = Dispatch.value =
  | Vdense of Granii_tensor.Dense.t
  | Vsparse of Granii_sparse.Csr.t
  | Vdiag of Granii_tensor.Vector.t

type timing = Measure | Simulate of Granii_hw.Hw_profile.t

type report = {
  output : value;
  setup_time : float;
  iteration_time : float;
  layout_time : float;
      (** always [0.]: no run lays the graph out anew. Kept because
          perfbench reports it as [executor.layout_ms]. *)
  per_step : (Primitive.t * Plan.phase * float) list;
  intermediates : (int * value) list;
      (** every step's output, by step index — consumed by the reverse pass
          of {!Granii_gnn.Autodiff}; empty when run with
          [keep_intermediates = false] *)
}

exception Execution_error of string
(** Re-exported {!Dispatch.Execution_error}. *)

val apply :
  ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  Primitive.t -> Granii_graph.Graph.t -> value list -> value
(** Execute one primitive against concrete operand values — the kernel
    dispatch used by {!exec}, exposed so measured profiling
    ({!Profiling.collect_measured}) can time individual primitives. Raises
    {!Execution_error} on an argument-kind mismatch. With [?pool], kernels
    run on the multicore engine ({!Granii_hw.Domain_pool}); with [?ws],
    outputs are drawn from the workspace arena. *)

val exec_iterations :
  ?seed:int -> engine:Engine.t -> timing:timing ->
  graph:Granii_graph.Graph.t ->
  bindings:(string * value) list -> iterations:int -> Plan.t -> report
(** Executes the plan under the engine's configuration: setup steps run
    once, per-iteration steps run [iterations] times with fixed bindings,
    re-using preallocated argument arrays and the previous iteration's arena
    buffers — the loop the trainer, profiler and
    selection micro-benchmarks sit in. Leaf names are resolved in
    [bindings]; the graph's {m \tilde A} and normalization vector are
    available to [Degree] steps. [iteration_time] is the {e mean}
    per-iteration time; [per_step] lists the steps in plan order, with the
    last iteration's times (0.0 for a step fused into its producer, see
    above), and [intermediates] reflect the last iteration.
    Raises [Invalid_argument] when [iterations < 1] and {!Execution_error}
    on an unbound input or an argument-kind mismatch (which would indicate
    an enumeration bug). Bindings must not be backed by buffers issued from
    the engine's own workspace.

    With the engine's metrics sink live, each run adds the arena's hit and
    miss counts and sets the [gc.major_words] gauge to the major-heap words
    the calling domain has allocated so far, read from [Gc.counters]
    (exact, and it forces no collection). Words allocated on pool domains
    are not counted. *)

val exec :
  ?seed:int -> engine:Engine.t -> timing:timing ->
  graph:Granii_graph.Graph.t ->
  bindings:(string * value) list -> Plan.t -> report
(** [exec_iterations ~iterations:1]: one run of the plan. *)

(** {2 Analytic estimation} *)

val estimate :
  ?seed:int -> profile:Granii_hw.Hw_profile.t -> env:Dim.env -> Plan.t ->
  float * float
(** [(setup_time, iteration_time)] predicted analytically from symbolic
    primitive shapes — no execution, no bindings. *)

val total_time : setup:float -> iteration:float -> iterations:int -> float
(** [setup + iterations * iteration]: the quantity compositions compete on
    (the paper evaluates at 100 iterations). *)

val shape_of : value -> int * int

val pp_value : Format.formatter -> value -> unit
