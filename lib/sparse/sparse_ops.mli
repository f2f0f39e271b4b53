(** Assorted sparse kernels used by GNN compositions. *)

val scale_rows : ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  Granii_tensor.Vector.t -> Csr.t -> Csr.t
(** [scale_rows d a] is {m \mathrm{diag}(d) \cdot A}: stored entry
    {m (i, j)} becomes {m d_i \cdot A_{ij}}. The result is weighted. *)

val scale_cols : ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  Csr.t -> Granii_tensor.Vector.t -> Csr.t
(** [scale_cols a d] is {m A \cdot \mathrm{diag}(d)}. *)

val scale_bilateral : ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  Granii_tensor.Vector.t -> Csr.t -> Granii_tensor.Vector.t -> Csr.t
(** [scale_bilateral dl a dr] is {m \mathrm{diag}(d^L) \cdot A \cdot
    \mathrm{diag}(d^R)} in a single pass — the fused form of GCN's
    normalization precomputation (equals {!Sddmm.rank1}). *)

val add : Csr.t -> Csr.t -> Csr.t
(** Sparse-sparse addition; the result's structure is the union, every row
    sorted by column with no repeats, and the result is always weighted.
    Raises [Invalid_argument] on a shape mismatch. O(n + nnz) when both
    operands' rows are strictly increasing: each row is a two-pointer merge,
    and a column stored in both is [A + B]. Any other row (permuted by
    [Reorder.permute_csr], or repeating a column through
    {!Csr.make}) is sorted on its own: its entries are ordered by column,
    then by source position (A's entries in storage order, then B's), and
    each column's run is summed left to right in that order. *)

val row_softmax : ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  Csr.t -> Csr.t
(** Softmax over each row's stored values (numerically stabilized): the
    attention-normalization kernel of GAT. Rows with no entries are left
    empty. *)

val row_sums : Csr.t -> Granii_tensor.Vector.t
(** Sum of stored values per row; on an unweighted matrix this is the
    out-degree vector as floats. *)

val weighted_degrees : Csr.t -> Granii_tensor.Vector.t
(** Alias of {!row_sums}, under the name the GNN code uses. *)

val binned_degrees : Csr.t -> Granii_tensor.Vector.t
(** Degree computation in the style of WiseGraph's PyTorch binning function
    (paper, Sec. VI-C1): scatter-add of ones over destination bins. The
    result equals {!row_sums} on an unweighted matrix; the point of modeling
    it separately is its very different cost profile (atomic contention on
    dense graphs), which {!Granii_hw.Kernel_model} accounts for. *)
