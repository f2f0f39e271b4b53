(** Graphs as (unweighted, square) CSR adjacency matrices.

    Evaluation graphs in the paper are undirected and unweighted
    (Sec. VI-B); the adjacency used by GNN models is {m \tilde A = A + I}
    (self-loops added), and the GCN normalization vector is
    {m \tilde D^{-1/2}}. *)

type memo
(** Per-graph derived operands ({!with_self_loops}, {!norm_inv_sqrt},
    {!norm_inv}, {!fingerprint}), each built on first use and then shared: every later
    call, from any domain, returns the physically same value. Safe to fill
    from several domains at once (a domain that loses the race drops its
    own identical copy). The shared values must not be mutated: no kernel
    writes into an operand, and the executor's arena only takes back
    buffers it issued, so a memoized vector bound as a [Vdiag] operand
    survives every run, [intermediates=drop] included. *)

type t = private {
  name : string;
  adj : Granii_sparse.Csr.t;  (** unweighted adjacency, no self-loops *)
  memo : memo;
}

val make : name:string -> Granii_sparse.Csr.t -> t
(** Wraps an adjacency matrix with an empty {!memo}. Raises
    [Invalid_argument] if it is not square. Values, if any, are dropped —
    graphs here are structural. The matrix must not be mutated afterwards:
    the memoized operands are derived from it. *)

val of_edges : name:string -> n:int -> (int * int) list -> t
(** Builds an undirected graph from an edge list (both directions stored,
    duplicates and self-loops removed). *)

val n_nodes : t -> int

val n_edges : t -> int
(** Number of {e stored directed} entries (an undirected edge counts twice),
    matching how the paper's tables report "Edges"/non-zeros. *)

val density : t -> float
(** [n_edges / (n_nodes^2)]. *)

val avg_degree : t -> float

val max_degree : t -> int

val with_self_loops : t -> Granii_sparse.Csr.t
(** {m \tilde A = A + I}, unweighted: each row holds the row's distinct
    columns plus the diagonal, sorted. The first call builds it in one
    O(n + nnz) pass over the rows (a row that is not already strictly
    increasing is sorted first); every later call, from any domain, returns
    the physically same memoized CSR. It is shared: callers must not mutate
    its arrays. *)

val degrees_tilde : t -> Granii_tensor.Vector.t
(** {m \tilde D}: the row sums of {m \tilde A} (its row lengths, from the
    memoized {!with_self_loops}) as floats. That is each node's degree + 1,
    except that a diagonal entry already stored in [adj] (or a duplicate
    column) is counted once, as in {m \tilde A}. *)

val norm_inv_sqrt : t -> Granii_tensor.Vector.t
(** {m \tilde D^{-1/2}}: the GCN normalization vector, from
    {!degrees_tilde}. Memoized like {!with_self_loops}: the first call
    builds it, every later call returns the physically same vector, which
    callers must not mutate. The plan's [Degree Inv_sqrt] step reads it,
    so serve and infer derive it once per graph. *)

val norm_inv : t -> Granii_tensor.Vector.t
(** {m \tilde D^{-1}}: each entry of {!degrees_tilde} to the power -1,
    read by a plan's [Degree Inv] step. Memoized like {!norm_inv_sqrt}, but
    built only on first use: {!build_plan_operands} does not build it, so a
    loader whose plans never read it pays nothing. Callers must not mutate
    it. *)

val build_plan_operands : t -> unit
(** Builds the memoized operands a plan run reads: {!with_self_loops}
    (bound as [A] on every model) and {!norm_inv_sqrt} (read by a
    [Degree Inv_sqrt] step, and cheap, O(n), where no step reads it).
    Serve calls it at graph registration and the mini-batch loader on each
    batch's subgraph, so neither a request nor the training domain builds
    them. *)

val fingerprint : t -> string
(** Structural fingerprint: exact node/edge counts plus an MD5 digest of the
    marshalled [adj] [row_ptr] and [col_idx] arrays, so structurally
    different graphs get different fingerprints (barring a digest
    collision); the name is ignored. O(n + nnz) on first call, memoized like
    {!with_self_loops}. Keys the serving plan cache. *)

val is_symmetric : t -> bool

val pp : Format.formatter -> t -> unit
