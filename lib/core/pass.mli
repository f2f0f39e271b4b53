(** The locality bracket the executor wraps around a run under a
    non-default {!Locality.config}: graph and bindings are permuted on
    entry, the plan executes entirely in the new id space (optionally from
    a localized sparse format), and outputs are inverse-permuted on exit.
    Values are classified by shape (n-row dense / n×n sparse / length-n
    diagonal are node-indexed, everything else is id-free). All of it is
    timed into the report's [layout_time]. *)
module Layout : sig
  type state

  val enter :
    locality:Locality.config -> graph:Granii_graph.Graph.t ->
    bindings:(string * Dispatch.value) list ->
    state option * Granii_graph.Graph.t * (string * Dispatch.value) list

  val register : state option -> Dispatch.value -> unit
  (** Memoize the hybrid form (under a [hybrid] config) of an
      iteration-stable square sparse value (bindings and setup-phase
      outputs), by physical identity. *)

  val form_of :
    state option ->
    (Granii_sparse.Csr.t -> Granii_sparse.Hybrid.t option) option
  (** The lookup handed to {!Dispatch.ctx}. *)

  val exit_ :
    state option -> n:int -> Dispatch.value -> (int * Dispatch.value) list ->
    Dispatch.value * (int * Dispatch.value) list * float
  (** Inverse-permute the output and intermediates back to the original
      vertex order; returns the accumulated layout time. *)
end
