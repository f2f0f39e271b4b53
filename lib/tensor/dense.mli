(** Dense row-major matrices of floats.

    This is the dense substrate for every dense primitive in the paper:
    GEMM (Sec. II-A), row-broadcast (Eq. 1), elementwise non-linearities, and
    the dense operands of SpMM / SDDMM. Storage is a single flat
    [float array] in row-major order, so row slices used by sparse kernels
    are contiguous. *)

type t = private { rows : int; cols : int; data : float array }

(** {1 Construction} *)

val create : int -> int -> float -> t
(** [create rows cols x] is a [rows]x[cols] matrix filled with [x]. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at position [(i, j)]. *)

val zeros : int -> int -> t

val ones : int -> int -> t

val identity : int -> t

val of_arrays : float array array -> t
(** Copies a rectangular array-of-rows. Raises [Invalid_argument] if the rows
    are ragged or there are zero rows. *)

val of_flat : rows:int -> cols:int -> float array -> t
(** Wraps a flat row-major array without copying. Raises [Invalid_argument]
    on a size mismatch. *)

val random : ?seed:int -> ?scale:float -> int -> int -> t
(** [random rows cols] has entries uniform in [[-scale, scale]]
    (default [scale = 1.]), from a deterministic PRNG seeded by [seed]
    (default [0]). *)

val glorot : ?seed:int -> int -> int -> t
(** Glorot/Xavier-uniform initialization for weight matrices:
    entries uniform in {m [\pm \sqrt{6/(fan_{in}+fan_{out})}]}. *)

val copy : t -> t

(** {1 Access} *)

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val dims : t -> int * int

val row : t -> int -> float array
(** [row m i] copies row [i]. *)

val col : t -> int -> float array
(** [col m j] copies column [j]. *)

val to_arrays : t -> float array array

(** {1 Row epilogues}

    An epilogue is a chain of row-local elementwise steps that a producing
    kernel ({!matmul}, [Spmm.run]) applies to each output row once the row
    holds its final value, while it is still in cache, instead of a later
    pass re-reading the whole output. *)

type epilogue_op =
  | Scale_rows of Vector.t
      (** row [i] times [d.(i)], as {!row_broadcast} computes it
          ([d.(i) *. x]) *)
  | Relu  (** as {!relu} *)
  | Leaky_relu of float  (** as {!leaky_relu} with this slope *)
  | Sigmoid  (** as {!sigmoid} *)

type epilogue = epilogue_op list
(** Applied in list order; [[]] is no epilogue.

    Contract: a kernel run with epilogue [ops] returns bitwise what it
    returns without one, followed by one pass of each op in order (e.g.
    [relu (row_broadcast d (matmul a b))] for
    [matmul ~epilogue:[Scale_rows d; Relu] a b]): each element sees the
    same IEEE operations in the same order. A kernel raises
    [Invalid_argument] when a [Scale_rows] vector's length is not its
    output's row count. *)

type epilogue_state
(** An epilogue with its own select table. The table is scratch written per
    element, so each parallel chunk starts its own state. *)

val epilogue_start : epilogue -> epilogue_state
(** A chunk-local state; allocates nothing for [[]]. *)

val epilogue_row :
  epilogue_state -> float array -> row:int -> lo:int -> hi:int -> unit
(** [epilogue_row st out ~row ~lo ~hi] applies the ops, in place, to the
    slots [lo .. hi - 1] of a row-major output, all of them in row [row]
    (the index [Scale_rows] reads). Indices are not checked: the caller
    validates with {!check_epilogue}. *)

val check_epilogue : who:string -> rows:int -> epilogue -> unit
(** Raises [Invalid_argument] (naming [who]) unless every [Scale_rows]
    vector has length [rows]. *)

(** {1 Linear algebra} *)

val matmul :
  ?pool:Parallel.t -> ?ws:Workspace.t -> ?epilogue:epilogue -> t -> t -> t
(** [matmul a b] is the GEMM {m A \cdot B}. Raises [Invalid_argument] on an
    inner-dimension mismatch. Large products go through a cache-blocked
    kernel (packed B panels, register-tiled micro-kernel) whose result is
    bitwise identical to {!matmul_unblocked} on finite inputs. Its edge
    tiles (the [n mod 4] tail columns, and an odd row range's last row) run
    one register-accumulated column at a time, so an output such as 5
    columns wide costs about what 4 columns do and allocates nothing per
    multiply-add; products
    with 1 to 3 output columns run one register-accumulated row dot per
    output row, also bitwise identical to it. With [?pool], output rows are computed in parallel chunks; the result is
    bitwise identical to the sequential kernel. With [?ws], the output
    (and, sequentially, the packing scratch) comes from the workspace. With
    [?epilogue], every path applies it to each output row (the blocked
    kernel to each row's column block) right after the row's last store,
    under the epilogue contract. *)

val matmul_unblocked : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t -> t
(** The streaming i-k-j GEMM without cache blocking — the kernel {!matmul}
    falls back to below its size threshold (outputs at least 4 columns
    wide), exposed for benchmarking the
    tiled kernel against. *)

val matmul_gen : ?pool:Parallel.t -> ?ws:Workspace.t -> Semiring.t -> t -> t -> t
(** GEMM over an arbitrary semiring. [matmul_gen Semiring.plus_times] is
    {!matmul}. *)

val matmul_tn : t -> t -> t
(** [matmul_tn a b] is {m A^T \cdot B} for [a] of [r]x[m] and [b] of
    [r]x[n], read in place: no transpose of [a] is copied. Raises
    [Invalid_argument] if the row counts differ. Sequential, with 2x4
    register tiles (2x1 for the [n mod 4] tail columns, 1x1 for the last
    output row when [m] is odd) over blocks of 64 rows of [a] and [b], the
    accumulators stored to the output between blocks and reloaded.

    Bitwise contract: each output starts at +0.0 and adds its products in
    ascending row order, so on finite inputs the result is bitwise
    [matmul (transpose a) b] on every path {!matmul} picks (narrow,
    unblocked and blocked). It allocates the [m]x[n] output only. *)

val transpose : t -> t
(** [transpose m] is a fresh {m M^T}, copied in a direct loop (no boxing
    per element). *)

val add : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t -> t

val sub : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t -> t

val scale : ?pool:Parallel.t -> ?ws:Workspace.t -> float -> t -> t

val mul_elementwise : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t -> t
(** Hadamard product. *)

val add_row_vector : t -> Vector.t -> t
(** [add_row_vector m v] adds [v] to every row of [m] (bias addition). *)

val concat_cols : t list -> t
(** Horizontal concatenation (equal row counts) — multi-head attention
    outputs are concatenated along the feature dimension. Raises
    [Invalid_argument] on an empty list or mismatched row counts. *)

val split_cols : t -> int -> t list
(** [split_cols m parts] splits the columns into [parts] equal slices —
    the inverse of {!concat_cols} for equal widths. Raises
    [Invalid_argument] if the width is not divisible. *)

val row_broadcast : ?pool:Parallel.t -> ?ws:Workspace.t -> Vector.t -> t -> t
(** [row_broadcast d m] is the paper's row-broadcast primitive (Eq. 1):
    [c.(i).(j) = d.(i) *. m.(i).(j)], i.e. {m \mathrm{diag}(d) \cdot M}. *)

val col_broadcast : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> Vector.t -> t
(** [col_broadcast m d] scales column [j] of [m] by [d.(j)],
    i.e. {m M \cdot \mathrm{diag}(d)}. *)

(** {1 Elementwise and reductions} *)

val map : ?pool:Parallel.t -> ?ws:Workspace.t -> (float -> float) -> t -> t

val map2 : ?pool:Parallel.t -> ?ws:Workspace.t -> (float -> float -> float) -> t -> t -> t

val relu : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t
(** [x] where [x > 0.], [+0.] elsewhere (NaN included), by a branch-free
    select. *)

val sigmoid : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t

val leaky_relu : ?pool:Parallel.t -> ?ws:Workspace.t -> ?slope:float -> t -> t
(** Leaky ReLU with negative [slope] (default [0.2], GAT's choice):
    [x] where [x > 0.], [slope *. x] elsewhere, by a branch-free select. *)

val softmax_rows : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t
(** Numerically-stable softmax applied to each row independently. *)

val log_softmax_rows : ?pool:Parallel.t -> ?ws:Workspace.t -> t -> t

val sum : t -> float

val frobenius : t -> float

val row_sums : t -> Vector.t

val col_sums : t -> Vector.t

val argmax_rows : t -> int array
(** Index of the maximum entry of each row (prediction extraction). *)

(** {1 Comparison and printing} *)

val equal_approx : ?eps:float -> t -> t -> bool
(** Entrywise comparison with mixed absolute/relative tolerance [eps]
    (default [1e-8]). *)

val max_abs_diff : t -> t -> float
(** Largest absolute entrywise difference; [infinity] if shapes differ. *)

val pp : Format.formatter -> t -> unit
