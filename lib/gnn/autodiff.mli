(** Reverse-mode differentiation of executable plans.

    GRANII optimizes only the forward pass; training still needs gradients,
    which the frameworks' autograd produces from the {e default}
    composition (paper, Sec. VI-C). This module provides both halves of
    that story:

    - {!backward}: a real vector-Jacobian reverse pass over any plan
      (including GAT's attention), yielding gradients for the dense
      input leaves — used by {!Stack}, which threads the feature gradient
      down the layers, and the training examples;
    - {!backward_wrt}: the same pass restricted to named leaves — used by
      {!Trainer}, which asks for the parameters only and so skips the
      feature gradient (a whole extra GEMM per batch) and every term that
      feeds nothing but it;
    - {!backward_kernels}: the kernel workload of that reverse pass, used to
      {e charge} backward time on simulated hardware without running it in
      the sweeps. *)

type grads = (string * Granii_tensor.Dense.t) list
(** Gradient per dense input leaf (parameters and features). *)

val backward :
  plan:Granii_core.Plan.t -> graph:Granii_graph.Graph.t ->
  bindings:(string * Granii_core.Executor.value) list ->
  forward:Granii_core.Executor.report -> seed:Granii_tensor.Dense.t -> grads
(** [backward ~plan ~forward ~seed] pulls the output cotangent [seed] back
    through the recorded forward execution. The forward report must carry
    every intermediate, so the forward run's engine must keep
    [keep_intermediates = true] (the {!Granii_core.Engine.default_config}
    setting). Gradients through the graph structure (adjacency,
    normalization diagonals) are not materialized. Raises
    [Granii_core.Executor.Execution_error] on malformed plans.

    Every VJP is a direct loop over the flat arrays (no per-element
    closure), and a term is computed only if its target needs a gradient.
    This is [backward_wrt] with [wrt] the names of the dense bindings.

    Kernels per VJP:
    - GEMM {m C = A B}: {m dB = A^T G} by {!Granii_tensor.Dense.matmul_tn},
      reading the n-row {m A} in place; {m dA = G B^T} by
      {!Granii_tensor.Dense.matmul} of a copied {m B^T}, where {m B} is a
      weight on every plan (at most k_in x k_out);
    - SpMM {m C = S B}: {m dB = S^T G} by {!Granii_sparse.Spmm.run_t}, and
      an attention-valued {m dS} by an SDDMM over {m S}'s structure
      ({!Granii_sparse.Sddmm.dot_rows});
    - row and column broadcasts: the same broadcast of {m G};
    - elementwise maps, edge softmax and edge scores: direct loops.

    The dense-times-sparse VJP {m dB = G S^T} still copies
    [Csr.transpose S] for {!Granii_sparse.Spmm.run_transposed}: a gather
    over {m S}'s rows would add in storage order rather than in ascending
    column, which is bitwise the same only on sorted rows. Each kernel is
    bitwise the transpose-then-kernel product it replaced, so gradients do
    not change. *)

val backward_wrt :
  wrt:string list -> plan:Granii_core.Plan.t -> graph:Granii_graph.Graph.t ->
  bindings:(string * Granii_core.Executor.value) list ->
  forward:Granii_core.Executor.report -> seed:Granii_tensor.Dense.t -> grads
(** [backward_wrt ~wrt ...] is {!backward} for the dense inputs named in
    [wrt] only: a source gets a gradient only if it is one of them, or a
    per-iteration step with one of them among its transitive arguments.
    Each returned gradient is bitwise the one {!backward} returns for the
    same name, because it receives the same terms in the same order. *)

val backward_kernels :
  graph:Granii_graph.Graph.t -> env:Granii_core.Dim.env ->
  Granii_core.Plan.t -> Granii_hw.Kernel_model.kernel list
(** The kernels a framework's autograd would launch for the plan's
    per-iteration steps (setup steps are loop-invariant and carry no
    gradient). *)

val backward_time :
  profile:Granii_hw.Hw_profile.t -> graph:Granii_graph.Graph.t ->
  env:Granii_core.Dim.env -> ?seed:int -> Granii_core.Plan.t -> float
(** Simulated time of {!backward_kernels} on the profile. *)
