(** The plan cache: selection runs once per distinct input shape.

    GRANII's online stage ({!Selector.select_localized}) is the per-input
    overhead the paper reports; at serving scale — and at mini-batch
    training rate, where every batch is a different small graph — it must
    be amortized across invocations, not repeated per call. The cache maps
    a {!key} — everything selection's answer depends on — to the
    {!Selector.localized_choice} it produced, so a stream of requests (or
    training batches) against the same (graph, model, K_in, K_out,
    hardware) pays selection exactly once.

    The cache lives in [lib/core] so the serving runtime
    ({!Granii_serve.Serve}) and the mini-batch trainer
    ({!Granii_gnn.Trainer.train_minibatch}) share one keying policy,
    {!key_of}. They differ only in the graph component of the key:

    - serving keys on the {e exact} structural fingerprint
      ({!Granii_graph.Graph.fingerprint}) — registered graphs are
      long-lived and a plan must never leak across structures;
    - the trainer keys on the {e bucketed} fingerprint
      ({!bucketed_fingerprint}) — sampled subgraphs are all different, so
      exact keying would trivially miss on every batch; bucketing by
      log-scale size, log-scale edge count and rounded average degree makes
      structurally similar batches hit while a different graph family still
      misses. Plans are graph-{e agnostic} (a candidate composition is
      legal on any input), so sharing a plan within a bucket is a quality
      approximation, never a correctness risk.

    Eviction is LRU over a fixed capacity; [capacity = 0] disables the
    cache entirely ({!find} always misses, {!add} is a no-op), which is the
    ablation arm of the serving and mini-batch benches. Hit/miss/eviction
    counts go to the optional metrics sink as [<prefix>.hits] /
    [.misses] / [.evictions] (prefix default ["serve.plan_cache"]).

    Not domain-safe: callers serialize access (the serving runtime under
    its scheduler lock, the trainer on the orchestrating domain). *)

type key = {
  graph_fp : string;
      (** {!Granii_graph.Graph.fingerprint} (exact, serving) or
          {!bucketed_fingerprint} (sampled mini-batches) *)
  model : string;
  k_in : int;
  k_out : int;
  hw : string;        (** {!Granii_hw.Hw_profile.t} / cost-model name *)
  threads : int;      (** selection is thread-count-aware *)
  layout : string;
      (** {!Locality.config_to_string} of the engine's locality axis — two
          engine configs that localize differently (ordering or sparse
          format) rank candidates differently, so they must never share a
          plan *)
}

type stats = { hits : int; misses : int; evictions : int }

type t

val create :
  ?obs:Granii_obs.Obs.t -> ?metric_prefix:string -> capacity:int -> unit -> t
(** Raises [Invalid_argument] when [capacity < 0]. [metric_prefix] names
    the counter family (default ["serve.plan_cache"]; the trainer uses
    ["train.plan_cache"]). *)

val capacity : t -> int

val length : t -> int

val find : t -> key -> Selector.localized_choice option
(** Counting lookup: every call is a hit or a miss. *)

val peek : t -> key -> Selector.localized_choice option
(** Non-counting lookup (diagnostics and oracle paths). *)

val add : t -> key -> Selector.localized_choice -> unit
(** Insert, evicting the least-recently-used entry when full. Replacing an
    existing key is not an eviction. No-op at capacity 0. *)

val stats : t -> stats

(** {2 The shared keying policy} *)

val key_of :
  graph_fp:string -> model:string -> k_in:int -> k_out:int -> hw:string ->
  threads:int -> locality:Locality.config -> key
(** The one place a cache key is assembled: lowercases the model name and
    stringifies the locality axis, so serve and trainer cannot drift. *)

val bucketed_fingerprint : Granii_graph.Graph.t -> string
(** O(1) bucketed structural fingerprint for sampled subgraphs:
    [floor(log2 n)], [floor(log2 nnz)] and average degree rounded to
    half-steps. Mini-batches drawn with the same batch size and fanout
    schedule typically land in the same bucket (and hit) — draws sitting
    on a bucket boundary may split, costing one extra selection; a graph
    from a different size or density family never matches. *)
