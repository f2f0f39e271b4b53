(** Kernel dispatch: concrete values and the primitive → kernel match.

    This is the lowest layer of the execution stack
    ([Dispatch] < {!Engine} < {!Executor}): it knows how to apply one
    {!Primitive.t} to concrete operand {!value}s and nothing about plans,
    phases, caching or timing. {!exec} picks the CPU kernel with a direct
    match on the primitive and its operands. *)

type value =
  | Vdense of Granii_tensor.Dense.t
  | Vsparse of Granii_sparse.Csr.t
  | Vdiag of Granii_tensor.Vector.t

exception Execution_error of string
(** Raised on an argument-kind or arity mismatch (which would indicate an
    enumeration bug). *)

val shape_of : value -> int * int

val pp_value : Format.formatter -> value -> unit

val backing_arrays : value -> float array list
(** The float arrays backing a value — what the workspace arena pools.
    CSR structure arrays are ints shared with the mask/graph, so only the
    values array moves. *)

val shares_backing : float array -> value -> bool

(** {2 Execution context}

    What a kernel may use while running: the domain pool and the workspace
    arena. Built by {!Executor} from an {!Engine.t}; {!plain} is the bare
    sequential context. *)

type ctx = {
  pool : Granii_tensor.Parallel.t option;
  ws : Granii_tensor.Workspace.t option;
}

val plain : ctx

(** {2 Dispatch} *)

val exec :
  ?epilogue:Granii_tensor.Dense.epilogue ->
  ctx -> Primitive.t -> Granii_graph.Graph.t -> value array -> value
(** Execute one primitive from CSR. Raises {!Execution_error} on an
    argument-kind or arity mismatch.

    [?epilogue] (default [[]]) finishes a [Gemm] or [Spmm] output row by
    row ({!Granii_tensor.Dense.epilogue}). Any other primitive with a
    non-empty epilogue raises {!Execution_error}. *)

val epilogue_op : Matrix_ir.nonlinear -> Granii_tensor.Dense.epilogue_op option
(** The row-epilogue form of a [Dense_map] step's kernel, bitwise the same
    map: relu, leaky relu (at the slope the map kernel uses) and sigmoid.
    [None] for the row-wise and edge maps, which no producer can finish
    element by element. *)

val kernels_of_step :
  Primitive.t -> Granii_graph.Graph.t -> value array -> value ->
  Granii_hw.Kernel_model.kernel list
(** The analytic kernels of one executed step, sized from the actual operand
    values (so sampling or precomputed sparse intermediates are charged
    their true nnz) — the basis of [Simulate]-mode timing. *)

(**/**)

val diag_to_csr : ?ws:Granii_tensor.Workspace.t -> float array -> Granii_sparse.Csr.t
