(** Kernel dispatch: concrete values and the primitive → kernel match.

    This is the lowest layer of the execution stack
    ([Dispatch] < {!Engine} < {!Executor}): it knows how to apply one
    {!Primitive.t} to concrete operand {!value}s and nothing about plans,
    phases, caching or timing. {!exec} picks the CPU kernel with a direct
    match on the primitive and its operands; the gather-bound g-kernels
    (SpMM, rank-1 SDDMM) run from a hybrid ELL slab + CSR tail when the
    context holds one for their sparse operand. *)

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

    What a kernel may use while running: the domain pool, the workspace
    arena, and the locality engine's hybrid-form lookup (physical-identity
    memo over iteration-stable sparse matrices: what the [Pass] layout
    bracket converted a graph matrix into under a [hybrid] locality
    config). Built by {!Executor} from an {!Engine.t}; {!plain} is the bare
    sequential context. *)

type ctx = {
  pool : Granii_tensor.Parallel.t option;
  ws : Granii_tensor.Workspace.t option;
  localize : (Granii_sparse.Csr.t -> Granii_sparse.Hybrid.t option) option;
}

val plain : ctx

(** {2 Dispatch} *)

type fmt = Fmt_csr | Fmt_hybrid

val fmt_to_string : fmt -> string

val format_of : ctx -> Primitive.t -> value array -> fmt
(** The operand format {!exec} would dispatch a step under — exposed so the
    telemetry layer can attribute a span to the kernel that actually ran. *)

val exec : ctx -> Primitive.t -> Granii_graph.Graph.t -> value array -> value
(** Execute one primitive: SpMM and rank-1 SDDMM run from the context's
    hybrid form of their sparse operand when it has one, every other
    primitive (and those two without a form) from CSR. Raises
    {!Execution_error} on an argument-kind or arity mismatch. *)

val kernels_of_step :
  Primitive.t -> Granii_graph.Graph.t -> value array -> value ->
  Granii_hw.Kernel_model.kernel list
(** The analytic kernels of one executed step, sized from the actual operand
    values (so sampling or precomputed sparse intermediates are charged
    their true nnz) — the basis of [Simulate]-mode timing. *)

(**/**)

val diag_to_csr : ?ws:Granii_tensor.Workspace.t -> float array -> Granii_sparse.Csr.t
