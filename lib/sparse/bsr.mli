(** Block-sparse rows (BSR): r x c dense tiles over the nonempty blocks.

    The locality engine's dense-hardware format (Balog et al., 1906.11786):
    SpMM and SDDMM lower to small dense GEMM tiles — a 4x2 register
    micro-kernel of BSR's own, run per block row — so the sparse
    g-kernels ride the dense pipe instead of the gather pipe. Profitable
    when the graph has block structure ({!fill} close to 1); at low fill the
    tiles are mostly padding and the cost model keeps CSR.

    Bitwise contract: blocks sort by block column and tile columns ascend,
    so real entries accumulate in exactly the {!Csr} kernel order; padding
    slots contribute signed zeros (never observable in a finite running
    sum), and unweighted matrices store [1.] at entry slots ([1. *. b] is
    [b] exactly). Every kernel is bitwise identical to its Csr oracle. *)

type t = private {
  n_rows : int;
  n_cols : int;
  r : int;                      (** block height *)
  c : int;                      (** block width *)
  nb_rows : int;
  nb_cols : int;
  block_ptr : int array;        (** [nb_rows + 1]: stored blocks per block row *)
  block_col : int array;        (** per block, ascending within a block row *)
  values : float array;         (** [n_blocks * r * c], row-major per block;
                                    padding slots are [0.] *)
  src : Csr.t;                  (** source matrix: structural ground truth and
                                    the SDDMM output layout *)
}

val default_block : int
(** 8 — the tile edge the featurizer's block-density statistic and the cost
    model's [Spmm_bsr] term assume. *)

val of_csr : ?r:int -> ?c:int -> Csr.t -> t
(** Tiles a CSR matrix into [r x c] blocks (default {!default_block} both
    ways). Raises [Invalid_argument] when a block dimension is < 1. *)

val to_csr : t -> Csr.t
(** Reconstructs the CSR matrix, reading every entry's value back out of its
    tile slot. Exact round-trip: [to_csr (of_csr m)] equals [m] structurally
    and bitwise. *)

val nnz : t -> int

val n_blocks : t -> int

val fill : t -> float
(** Fraction of stored tile slots holding a real entry:
    [nnz / (n_blocks * r * c)]; [1.] for an empty matrix. *)

val is_weighted : t -> bool

val spmm :
  ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t
(** Plus-times g-SpMM over dense tiles, bitwise identical to
    [Spmm.run src b]. Block rows are chunked by stored-block count. *)

val sddmm :
  ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  t -> Granii_tensor.Dense.t -> Granii_tensor.Dense.t -> Csr.t
(** Plus-times g-SDDMM: computes the dense dot tile per block and scatters
    the entry-backed slots into the source CSR value layout; bitwise
    identical to [Sddmm.run src a b]. *)

val rank1 :
  ?pool:Granii_tensor.Parallel.t -> ?ws:Granii_tensor.Workspace.t ->
  t -> float array -> float array -> Csr.t
(** Rank-1 SDDMM (k = 1 gains nothing from tiles): delegates to
    [Sddmm.rank1 src]. *)

val pp : Format.formatter -> t -> unit
