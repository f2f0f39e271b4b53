(** Executable plans: a scheduled, CSE'd association tree.

    A plan is the straight-line step list obtained from an association tree
    in arguments-first order, with two phases:

    - [Setup]: steps whose transitive inputs are all graph-derived
      (adjacency, normalization diagonals). These are loop-invariant; GRANII
      hoists them so they run once, which is how the precomputation-based
      compositions amortize their SDDMM over the iterations (Sec. III-A).
    - [Per_iteration]: everything touching node features or weights.

    Baseline systems' straight-line model code does {e not} hoist — DGL and
    WiseGraph recompute normalization inside every [forward()] — which is
    modeled by building their plans with [hoist:false] (this is the source of
    the binning slowdowns of Sec. VI-C1).

    Normalization-vector leaves (e.g. {m \tilde D^{-1/2}}) are produced by an
    explicit [Degree] step whose kind (binned scatter-add vs row-pointer
    diff) is chosen by the executing system. *)

type degree_spec = { binned : bool; power : Primitive.degree_power }
(** How a normalization leaf is computed: which degree kernel, and which
    power of the degree ({m -1/2} for GCN, {m -1} for mean aggregation). *)

type phase = Setup | Per_iteration

type source =
  | Input of string   (** a leaf, bound at execution time *)
  | Computed of int   (** output of the step with this index *)

type step = {
  idx : int;
  prim : Primitive.t;
  args : source list;
  phase : phase;
}

type t = {
  steps : step list;      (** in execution order; [Setup] steps first *)
  output : source;
  name : string;
}

val of_tree :
  ?hoist:bool -> ?degree_leaves:(string * degree_spec) list -> name:string ->
  Assoc_tree.t -> t
(** Schedules a tree. [hoist] (default [true]) moves graph-only steps into
    the [Setup] phase. [degree_leaves] lists leaf names that are
    normalization vectors derived from the graph; a [Degree] step is
    inserted for each such leaf that the tree actually uses. *)

val primitives : t -> Primitive.t list

val setup_steps : t -> step list

val iteration_steps : t -> step list

val input_names : t -> string list
(** Leaves the plan expects to be bound (degree leaves excluded — those are
    computed). *)

val pp : Format.formatter -> t -> unit
