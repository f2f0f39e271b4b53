(** Synthetic graph generators.

    The paper evaluates on SuiteSparse / OGB / DGL graphs spanning road
    networks, power-law social graphs, co-purchase networks, and the very
    dense [mycielskian17]. Those datasets are not available offline, so these
    generators produce structural stand-ins from the same families; the
    mapping is in {!Datasets}. All generators are deterministic in [seed]. *)

val erdos_renyi : ?seed:int -> n:int -> avg_degree:float -> unit -> Graph.t
(** G(n, p) with [p] chosen so the expected (directed) degree is
    [avg_degree]; sampled by expected edge count for speed. *)

val barabasi_albert : ?seed:int -> n:int -> m:int -> unit -> Graph.t
(** Preferential attachment: each new node attaches to [m] existing nodes
    with probability proportional to degree. Produces the heavy-tailed degree
    distributions of co-purchase / co-authorship graphs. *)

val rmat : ?seed:int -> ?a:float -> ?b:float -> ?c:float -> scale:int ->
  edge_factor:int -> unit -> Graph.t
(** Recursive-matrix (Kronecker) generator with [2^scale] nodes and
    [edge_factor * 2^scale] sampled edges; the default quadrant probabilities
    [(a, b, c) = (0.57, 0.19, 0.19)] are the Graph500 power-law setting,
    matching social graphs like Reddit. *)

val grid2d : ?seed:int -> ?diagonal_fraction:float -> rows:int -> cols:int ->
  unit -> Graph.t
(** 4-neighbor lattice with a fraction of random diagonal shortcuts —
    a road-network stand-in (near-constant degree, huge diameter). *)

val mycielskian : ?levels:int -> unit -> Graph.t
(** Iterated Mycielski construction starting from {m K_2}; [levels] is the
    index [k] of {m M_k} (default [11]). Node count {m 3 \cdot 2^{k-2} - 1},
    edges roughly tripling per level — the same family as SuiteSparse's
    [mycielskian17], dense and highly regular. Raises [Invalid_argument] if
    [levels < 2]. *)

val community_overlap : ?seed:int -> n:int -> groups:int -> degree:int ->
  unit -> Graph.t
(** High neighbor-overlap graph: nodes are split into [groups] contiguous
    communities and every member of a community connects to the same
    [degree] template neighbors drawn from its own community (sampled with
    replacement, so up to [degree] distinct), keeping symmetrized
    back-edges inside the template rows. Every non-template member row is
    an {e exact} duplicate of its community's template: many rows gather
    the same dense rows. *)

val star : n:int -> Graph.t
(** One hub connected to [n - 1] leaves: the extreme skew case for tests. *)

val ring : n:int -> Graph.t

val complete : n:int -> Graph.t
