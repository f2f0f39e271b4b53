(** The graph layout a plan executes under. There is one: the input's own
    vertex order, in CSR (DESIGN.md §9). The type is kept, with its one
    value, because perfbench names it: [Locality.default],
    [Engine.config.locality], [Plan_cache.key_of ~locality] and
    [Selector.select_localized ?configs]. *)

type config = Identity_csr

val default : config
(** [Identity_csr], the only value. *)
