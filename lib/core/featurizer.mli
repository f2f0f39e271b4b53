(** Runtime input featurizer (paper, Sec. IV-E1).

    Inspects the input graph once, concatenates the resulting statistics with
    the embedding sizes of the primitive instance being costed {e and the
    thread count the kernels will run with}, and feeds the vector to the
    learned cost models. The extraction is timed — it is one of the two
    runtime overheads the paper reports (Sec. VI-C1). *)

type t = private {
  graph_features : float array;
  stats : Granii_graph.Graph_features.t;
      (** the raw statistics behind [graph_features] *)
  extraction_time : float;  (** seconds of wall-clock spent extracting *)
  threads : int;
      (** thread count of the execution engine the prediction targets; a
          hardware-configuration feature, so the learned models can rank
          compositions differently at different parallelism levels *)
}

val extract : ?threads:int -> Granii_graph.Graph.t -> t
(** One O(n + nnz) pass over the graph. [threads] defaults to [1]
    (sequential execution). *)

val of_features : ?threads:int -> Granii_graph.Graph_features.t -> t
(** Wraps precomputed statistics (extraction time 0) — used when profiling
    already has the statistics. *)

val with_threads : t -> int -> t
(** Re-targets an extracted feature vector at a different thread count
    without re-inspecting the graph. *)

val primitive_input : t -> dims:float * float * float -> float array
(** Final model input: graph features, the log-scaled size triple of the
    primitive instance, and the log-scaled thread count. *)

val n_inputs : int
(** Length of the vectors {!primitive_input} produces. *)

val input_names : string array
