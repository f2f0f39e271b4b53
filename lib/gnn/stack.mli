(** Multi-layer GNNs (paper, Sec. VI-F).

    A stack applies the same model architecture layer by layer; GRANII's
    composition decision is made {e per layer} (each layer has its own
    embedding-size pair, so a 2-layer GCN may run the update-first plan in
    layer 1 and aggregate-first in layer 2) and the decisions chain.
    Gradients flow through the whole stack: every layer's reverse pass
    exposes the gradient of its ["H"] input, which seeds the previous
    layer. *)

type layer = {
  l_plan : Granii_core.Plan.t;     (** the composition chosen for this layer *)
  l_params : Layer.params;
  l_k_in : int;
  l_k_out : int;
}

type t = private {
  lowered : Granii_mp.Lower.lowered;
  layers : layer list;  (** input side first *)
}

val build :
  ?seed:int -> oracle:Granii_core.Cost_oracle.t ->
  graph:Granii_graph.Graph.t -> compiled:Granii_core.Codegen.t ->
  lowered:Granii_mp.Lower.lowered -> dims:int list -> ?iterations:int ->
  unit -> t
(** [build ~dims:[d0; d1; ...; dn]] creates an (n)-layer stack with layer
    [i] mapping [d_i -> d_(i+1)], selecting each layer's plan with the cost
    models (paper: "chaining the decisions made for each separate layer").
    Raises [Invalid_argument] if [dims] has fewer than two entries. *)

val forward :
  ?engine:Granii_core.Engine.t -> ?keep_reports:bool ->
  graph:Granii_graph.Graph.t ->
  features:Granii_tensor.Dense.t -> t ->
  Granii_tensor.Dense.t * (Granii_core.Executor.report * (string * Granii_core.Executor.value) list) list
(** Runs all layers (real execution, under [?engine] when given — default
    {!Granii_core.Engine.default}); returns the final activations and,
    when [keep_reports] (default [true]), each layer's execution report and
    bindings for use by {!backward}. Kept reports stay valid together: each
    layer then runs in an arena of its own (the engine's pool, sink and
    config); without them every layer runs on [?engine] itself. *)

type history = {
  losses : float array;
  train_accuracy : float;
  final : t;
}

val train :
  ?seed:int -> ?mask:bool array -> epochs:int -> optimizer:Optimizer.t ->
  graph:Granii_graph.Graph.t -> features:Granii_tensor.Dense.t ->
  labels:int array -> t -> history
(** Full-stack training: forward through every layer, softmax cross-entropy
    at the top, reverse through every layer (the ["H"] gradient of layer
    [i+1] seeds layer [i]), one optimizer step per epoch over all layers'
    parameters. *)

val plans : t -> Granii_core.Plan.t list
