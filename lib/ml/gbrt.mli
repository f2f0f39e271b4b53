(** Gradient-boosted regression trees — the paper's "lightweight learned cost
    models" (Sec. IV-E2), an XGBoost-equivalent built from scratch.

    Squared-error boosting: each round fits a {!Regression_tree} to the
    current residuals and adds it with shrinkage [learning_rate]; optional
    row subsampling decorrelates the trees. *)

type t

type params = {
  n_trees : int;
  learning_rate : float;
  tree_params : Regression_tree.params;
  subsample : float;     (** fraction of rows drawn (without replacement) per round *)
  seed : int;
}

val default_params : params
(** 120 trees, learning rate 0.1, depth-4 trees, subsample 0.8. *)

val fit : ?params:params -> Ml_dataset.t -> t
(** Trains on the full dataset. *)

val predict : t -> float array -> float

val predict_many : t -> float array array -> float array

val n_trees : t -> int

val n_features : t -> int
(** Width of the feature vectors the model was trained on. *)

val feature_importance : t -> float array
(** Accumulated split gain per feature across all trees. *)

val to_sexp : t -> Sexp_lite.t

val of_sexp : Sexp_lite.t -> t
(** Raises {!Sexp_lite.Parse_error} on a malformed encoding. *)
