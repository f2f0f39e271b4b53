(** Neighborhood sampling (paper, Sec. VI-E; GraphSAGE, Hamilton et al.).

    Node-wise fanout sampling: every node keeps at most [fanout] of its
    neighbors, chosen uniformly without replacement. The sampled graph keeps
    the node set (so embedding matrices keep their shape) and is generally
    {e directed} — the sampling decision is per destination node. *)

val neighborhood : ?seed:int -> fanout:int -> Graph.t -> Graph.t
(** [neighborhood ~fanout g] keeps at most [fanout] in-edges per node.
    Deterministic in [seed] (default [0]). Raises [Invalid_argument] if
    [fanout <= 0]. *)

val induced_subgraph : Graph.t -> int array -> Graph.t
(** [induced_subgraph g nodes] restricts [g] to the given node subset,
    relabeling nodes to [0 .. Array.length nodes - 1]. Duplicate node ids are
    rejected with [Invalid_argument]. *)

val random_nodes : ?seed:int -> Graph.t -> int -> int array
(** [random_nodes g k] draws [k] distinct node ids uniformly. *)

val induced_compact : Graph.t -> int array -> Graph.t
(** {!induced_subgraph} on the {!Granii_sparse.Csr.counting_scatter}
    substrate: one counting pass over the original adjacency scatters the
    kept entries into their compactly renumbered rows (node [nodes.(i)]
    becomes node [i]), then each row's columns are re-sorted (the
    renumbering is not monotone). Structurally identical to
    {!induced_subgraph} — the hash-free fast path the mini-batch sampler
    builds on. *)

(** {1 Layered (GraphSAGE mini-batch) sampling}

    Per-layer fanout caps walked {e backward} from a seed-node batch: the
    seeds' aggregation (layer L) reads their sampled in-neighbors, which at
    layer L-1 read theirs, and so on — [fanouts] lists the per-hop caps
    outward from the seeds. Every node samples at most once (on first
    visit), so the sampled edge set is duplicate-free and the subgraph of a
    batch is a pure function of [(seed, seeds, fanouts)]: deterministic
    across runs, loader arms and thread counts. Nodes reached at the
    deepest layer keep empty rows (their aggregation sees only the
    self-loop {!Granii_gnn.Layer.bindings} adds) — the standard GraphSAGE
    truncation. *)

type layered = {
  subgraph : Graph.t;
      (** compactly renumbered sampled subgraph over the visited nodes,
          carrying only the sampled edges *)
  nodes : int array;
      (** the row-gather map: [nodes.(i)] is the original id of subgraph
          node [i] — gather features/labels rows through it. Seeds occupy
          [0 .. n_seeds - 1] in batch order. *)
  n_seeds : int;
}

type scratch
(** The sampler's reusable node-renumbering map (original id to new id).
    One scratch serves any number of sequential calls, on any graphs; it is
    single-owner state, so one domain at a time may use it. *)

val scratch : unit -> scratch
(** An empty scratch; the first call that uses it sizes it to the graph. *)

val layered_fanout :
  scratch:scratch -> ?seed:int -> fanouts:int list -> seeds:int array ->
  Graph.t -> layered
(** [layered_fanout ~fanouts ~seeds g] draws the layered neighborhood of
    the seed batch. A node of degree [<= fanout] keeps all its neighbors;
    larger rows draw [fanout] without replacement from a generator keyed on
    [(seed, layer, node)]. Raises [Invalid_argument] on an empty or
    non-positive [fanouts], an empty seed batch, an out-of-range or
    duplicate seed.

    The renumbering map lives in [scratch] across calls: it grows to the
    largest graph seen, and each call resets only the entries of the nodes
    it visited (also when it raises), so a batch costs time in the batch's
    size, not the graph's. The result does not depend on what earlier
    calls did with the scratch. *)
