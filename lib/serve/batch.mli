(** Batched plan execution: one dispatch-loop invocation for N requests.

    All requests in a batch execute the {e same} plan on the {e same} graph
    with the {e same} shared bindings (weights, adjacency, constants); only
    the designated input leaf (the feature matrix ["H"]) differs per
    request. The batch executor classifies each plan step once:

    - {b shared} — does not transitively depend on the input leaf
      (setup/precompute steps, weight-only algebra): executed {e once} for
      the whole batch instead of once per request;
    - {b widened} — depends on the input and is column-independent with
      exactly its dense operands per-request (SpMM, row-broadcast,
      elementwise maps, dense addition): the per-request operands are
      concatenated along the feature dimension and the kernel runs {e once}
      over the wide matrix — one SpMM over an [n x (B*k)] RHS instead of
      [B] SpMMs over [n x k];
    - {b scattered} — everything else (GEMM against a shared weight,
      attention scoring, softmax): executed per request on per-request
      slices.

    {2 The batching legality rule}

    A step may be widened only when (a) every input-dependent operand is a
    per-request dense matrix of identical shape across the batch, (b) every
    other operand is shared verbatim, and (c) the kernel computes each
    output column from the same column of the dependent operand(s) only —
    true for SpMM (per-output-element accumulation over a row's nonzeros,
    column-independent by construction, see [lib/sparse/spmm.ml]),
    row-broadcast, elementwise maps (relu/leaky-relu/sigmoid) and
    elementwise dense addition; false for GEMM (contraction mixes columns),
    column-broadcast (the scaling vector is indexed by column), and
    row-softmax (normalizes across columns). Consequently batched execution
    is {e bitwise identical} to executing the plan per request sequentially
    — the differential tests in [test/test_serve.ml] pin exactly that.

    Runs under the default graph layout with no workspace arena (the
    serving runtime's execution restriction, DESIGN.md §12); the optional pool is the same bitwise-transparent multicore
    engine the sequential executor uses. *)

type stats = {
  width : int;           (** requests coalesced into this invocation *)
  shared_steps : int;    (** steps executed once for the whole batch *)
  widened_steps : int;   (** steps executed once over widened operands *)
  scattered_steps : int; (** steps executed once per request *)
}

val exec_batch :
  ?pool:Granii_tensor.Parallel.t ->
  graph:Granii_graph.Graph.t ->
  bindings:(string * Granii_core.Executor.value) list ->
  input:string ->
  features:Granii_tensor.Dense.t list ->
  Granii_core.Plan.t ->
  Granii_core.Executor.value list * stats
(** [exec_batch ~graph ~bindings ~input ~features plan] executes [plan]
    once per feature matrix and returns the outputs in request order.
    [bindings] must bind every plan input except [input]; every feature
    matrix must have the graph's row count and equal width. Raises
    [Invalid_argument] on an empty batch or mismatched feature shapes, and
    {!Granii_core.Executor.Execution_error} on unbound inputs. *)
