(** Locality configurations: {e data layout} as a cost-modeled decision.

    A configuration pairs a vertex ordering ({!Granii_graph.Reorder.strategy})
    with a sparse format for the g-kernels: plain CSR, or the hybrid
    ELL slab + CSR tail ({!Granii_sparse.Hybrid}). The selector ranks
    {m \{ordering\} \times \{format\} \times \{primitive composition\}}
    jointly per input: each configuration contributes a one-time layout cost
    ({!layout_kernels}) and a per-kernel gather discount
    ({!gather_discount}) derived from the input's layout statistics
    (packing efficiency, degree skew, bandwidth) and the hardware profile's
    per-format terms.

    Execution under a non-default configuration is bitwise-transparent: the
    executor permutes the graph and bindings on entry, runs stable-permuted /
    hybrid kernels, and inverse-permutes the output (see {!Executor.exec}
    on an engine with a non-default [locality] axis). *)

type format = Csr | Hybrid

type config = { strategy : Granii_graph.Reorder.strategy; format : format }

val default : config
(** [identity + csr] — the legacy path; always considered first. *)

val is_default : config -> bool

val all_configs : config list
(** Every strategy × format pair (4 × 2), {!default} first. Both formats
    keep each row's storage order, so every pair honors the bitwise
    contract. *)

val all_formats : format list

val format_to_string : format -> string

val format_of_string : string -> format option
(** Accepts ["csr"] and ["hybrid"]/["ell"]. *)

val config_to_string : config -> string
(** E.g. ["degree+hybrid"]. *)

val order_quality : Granii_graph.Graph_features.t -> Granii_graph.Reorder.strategy -> float
(** Input-statistics proxy in [[0, 1]] for how much an ordering can help:
    degree skew (Gini) for degree-sort, near-regular sparsity for BFS/RCM,
    [0.] for identity. *)

val gather_discount :
  Granii_hw.Hw_profile.t -> Granii_graph.Graph_features.t -> config -> float
(** Predicted fraction of g-kernel random-gather traffic removed, composing
    the format and ordering credits as independent survival probabilities. *)

val layout_kernels :
  n:int -> nnz:int -> config -> Granii_hw.Kernel_model.kernel list
(** The one-time counting-scatter passes the configuration requires. The
    timed counterparts ([layout_time], [kernel_delta], [plan_adjustment])
    live on {!Cost_oracle} — this module only describes the structure. *)

val pp : Format.formatter -> config -> unit
