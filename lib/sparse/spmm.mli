(** Generalized sparse-matrix dense-matrix multiplication (g-SpMM).

    Computes {m C_{i,:} = \bigoplus_{j \in N(i)} A_{ij} \otimes B_{j,:}} for a
    CSR matrix [A] and dense [B] over a {!Granii_tensor.Semiring.t}
    (paper, Sec. II-B and Appendix A). The node-feature aggregation of every
    GNN model lowers to this primitive. *)

val run : ?semiring:Granii_tensor.Semiring.t -> ?pool:Granii_tensor.Parallel.t ->
  ?ws:Granii_tensor.Workspace.t -> ?tile_k:int ->
  Csr.t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t
(** [run a b] is {m A \cdot B}. Defaults to {!Granii_tensor.Semiring.plus_times}.
    When [a] is unweighted and the semiring multiplication is [plus_times] or
    [plus_rhs], the kernel skips reading edge values entirely — the paper's
    cheaper unweighted aggregation. Raises [Invalid_argument] on an inner
    dimension mismatch. With [?pool], output rows are chunked with the
    nonzero-balanced partitioner and computed in parallel. Wide feature
    dimensions are processed in cache-resident strips ([?tile_k] overrides
    the strip width, mainly for testing). Tiled, untiled, and parallel
    kernels are all bitwise identical on every semiring. With [?ws], the
    output buffer comes from the workspace. *)

val run_t : Csr.t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t
(** [run_t a b] is {m A^T \cdot B} over the arithmetic semiring, without
    materializing [A]'s transpose: a sequential scatter that walks [a]'s
    rows in order and adds each stored entry's product into output row
    [col]. Weighted entries multiply [b]'s row by the value; an unweighted
    matrix adds [b]'s row directly, as {!run}'s unweighted path does.
    Raises [Invalid_argument] unless [b] has [a.n_rows] rows.

    Bitwise contract: output row [j] starts at +0.0 and receives [a]'s
    column-[j] entries in ascending source row (storage order within a
    row), the order in which [Csr.transpose]'s stable counting scatter
    stores them, so the result is bitwise [run (Csr.transpose a) b] on
    every input, unsorted rows and duplicate columns included. It allocates
    the output only. *)

val run_transposed : ?pool:Granii_tensor.Parallel.t ->
  ?ws:Granii_tensor.Workspace.t -> Granii_tensor.Dense.t ->
  Csr.t -> Granii_tensor.Dense.t
(** [run_transposed b a] is the dense-times-sparse product {m B \cdot A} over
    the arithmetic semiring, evaluated without materializing [A]'s transpose
    (scatter along the stored entries). *)

val spmv : ?semiring:Granii_tensor.Semiring.t -> ?pool:Granii_tensor.Parallel.t ->
  Csr.t -> Granii_tensor.Vector.t -> Granii_tensor.Vector.t
(** Sparse matrix–vector product, the [k = 1] special case. *)
