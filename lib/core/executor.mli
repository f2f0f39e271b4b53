(** Plan execution, with real or simulated timing.

    The executor is the thin top of the execution stack
    ({!Dispatch} < {!Engine} < [Executor]): one dispatch loop,
    {!exec_iterations}, resolves arguments, routes each step through
    {!Dispatch.exec} and accumulates times; {!exec} is its single-iteration
    case. Setup steps run first, then the per-iteration steps, each in plan
    order. Everything configurable — pool, arena, locality layout,
    liveness policy — lives in the {!Engine.t} the caller constructs
    once.

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
    caller's own heap copy, taken after the layout's inverse permutation;
    the [intermediates] stay arena-backed until the engine's next run —
    copy any you keep. With [keep_intermediates = false], the
    executor additionally recycles each intermediate's buffer the moment
    its last reader retires ({!Liveness}; setup values only in the last
    iteration). The default keeps them alive — {!Granii_gnn.Autodiff}
    reads every intermediate in its backward pass.

    {2 Locality}

    With a non-default {!Locality.config}, the executor runs the plan under
    a graph layout chosen by the cost model: the graph (and every
    n-row/n-sized binding) is symmetrically permuted by the configured
    {!Granii_graph.Reorder} strategy before execution, square sparse
    operands are converted to the {!Granii_sparse.Hybrid} format when the
    configured format asks for it, and the output plus all intermediates are
    inverse-permuted back to the original vertex order before the report is
    built. The permutation is {e stable} (each row keeps its entry order),
    so for structure-preserving plans (every GCN/GAT composition) the
    returned values are bitwise identical to an unpermuted run. GIN's
    [Sparse_add] is the exception: [Sparse_ops.add] emits every row sorted by
    column, so under a layout a row's entry order (and with it the
    accumulation order of the SpMM that consumes the sum) differs from the
    unpermuted run's; results may differ in the last bits but not in
    semantics. Bindings are classified by shape: n×_ dense
    values are row-permuted, n×n sparse values symmetrically permuted,
    length-n diagonals permuted, everything else passed through — a k×k
    weight matrix is only at risk when k = n, which the compositions never
    produce. Layout work (reordering, hybrid conversion, inverse
    permutation) is timed into [layout_time], never into setup or iteration
    time. Hybrid conversion is memoized per physical value and applied to
    bindings and setup-phase outputs only; per-iteration sparse values fall
    back to CSR. *)

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
      (** time spent on locality work: graph reordering, binding
          permutation, hybrid-format conversion and the final inverse
          permutation; [0.] under {!Locality.default} *)
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
    last iteration's times, and [intermediates] reflect the last iteration.
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
