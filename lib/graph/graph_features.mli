(** Input featurizer statistics (paper, Sec. IV-E1).

    Hand-crafted graph features extracted in a single O(n + nnz) pass at
    runtime; concatenated with the embedding sizes they form the input of the
    learned per-primitive cost models. The feature set follows the paper's
    description ("sparsity of the graph", Appendix E): size, density, and
    degree-distribution shape. *)

type t = {
  n_nodes : float;
  nnz : float;
  density : float;       (** nnz / n^2 *)
  avg_degree : float;
  max_degree : float;
  min_degree : float;
  degree_cv : float;     (** coefficient of variation of degrees *)
  degree_gini : float;   (** Gini coefficient of the degree distribution *)
  skew_fraction : float; (** fraction of nodes with degree > 4 x average *)
  empty_fraction : float;(** fraction of isolated nodes *)
  degree_variance : float; (** variance of the row-length distribution *)
  avg_bandwidth : float; (** mean [|i - j|] over stored entries, / n *)
  max_bandwidth : float; (** max [|i - j|] over stored entries, / n *)
  ell_packing : float;   (** hybrid slab occupancy at the default width *)
}

val extract : Graph.t -> t
(** Computes all features. Deterministic and allocation-light; its cost is
    what the paper reports as the "feature extraction" overhead. *)

val to_array : t -> float array
(** Fixed-order encoding consumed by cost models; log-scaled where the raw
    quantity spans orders of magnitude. *)

val names : string array
(** Feature names, aligned with {!to_array}. *)

val pp : Format.formatter -> t -> unit
