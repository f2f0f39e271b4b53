(** Vertex reordering for the locality engine.

    An ordering is a bijection on node ids chosen to improve the memory
    behavior of the sparse primitives: {!Degree_sort} clusters hub rows of
    the dense operand (power-law graphs), {!Bfs}/{!Rcm} (Cuthill–McKee and
    its reversal) shrink bandwidth so an edge's endpoints land close in
    memory (mesh-like graphs). {!Identity} is the no-op baseline.

    {!permute_csr} is a {e stable} symmetric permutation: each permuted row
    keeps its source row's entry order, so per-element FP accumulation in the
    sparse kernels sees the same term sequence and results stay bitwise equal
    to the unpermuted run once outputs are inverse-permuted. The price: the
    permuted matrix's rows are not sorted by column index, so it must not be
    fed to consumers that binary-search within rows ([Csr.get]).
    [Sparse_ops.add] accepts such rows but sorts each one by column, so its
    result's entry order is not the stable permutation of the unpermuted
    sum's. The executor keeps permuted matrices internal to a run for
    exactly this reason. *)

type strategy = Identity | Degree_sort | Bfs | Rcm

type t = private {
  strategy : strategy;
  perm : int array; (** old id -> new id *)
  inv : int array;  (** new id -> old id *)
}

val strategy_to_string : strategy -> string

val strategy_of_string : string -> strategy option
(** Accepts ["identity"]/["none"], ["degree"]/["degree-sort"]/["degree_sort"],
    ["bfs"], ["rcm"]. *)

val all_strategies : strategy list

val compute : strategy -> Granii_sparse.Csr.t -> t
(** Computes an ordering from a square adjacency matrix. O(n log n + nnz). *)

val identity : int -> t

val of_perm : strategy:strategy -> int array -> t
(** Wraps an explicit old-to-new permutation; validates bijectivity. *)

val permute_csr : t -> Granii_sparse.Csr.t -> Granii_sparse.Csr.t
(** Stable symmetric permutation {m P A P^T} of a square matrix (values
    carried along). See the module header for the sortedness caveat. *)

val apply_graph : t -> Graph.t -> Graph.t
(** The permuted graph, renamed ["name+strategy"]. *)

val permute_dense_rows : t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t
(** Rows follow the nodes: new row [perm.(i)] is old row [i]. *)

val inverse_dense_rows : t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t
(** Inverse of {!permute_dense_rows} (recovers original row order). *)

val permute_vector : t -> float array -> float array

val inverse_vector : t -> float array -> float array

val bandwidth : ?order:t -> Granii_sparse.Csr.t -> float * int
(** [(average, maximum)] of [|i - j|] over stored entries, under [order] if
    given — the locality proxy the cost model consumes. *)

val pp : Format.formatter -> t -> unit
