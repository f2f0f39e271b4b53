(** A batch of requests, executed one {!Granii_core.Executor.exec} run at a
    time.

    The server does not use this module: every served request is its own
    executor run (DESIGN.md §12). It remains only because the repository
    benchmark ([perfbench/]) still calls it, and is deleted when that
    benchmark stops doing so. Nothing is widened or shared across requests,
    so the outputs are bitwise those of per-request
    {!Granii_core.Executor.exec} calls on a default engine. *)

type stats = {
  width : int;           (** requests in this invocation *)
  shared_steps : int;    (** always [0] *)
  widened_steps : int;   (** always [0] *)
  scattered_steps : int; (** the plan's step count: every step runs once
                             per request *)
}

val exec_batch :
  ?pool:Granii_tensor.Parallel.t ->
  graph:Granii_graph.Graph.t ->
  bindings:(string * Granii_core.Executor.value) list ->
  input:string ->
  features:Granii_tensor.Dense.t list ->
  Granii_core.Plan.t ->
  Granii_core.Executor.value list * stats
(** [exec_batch ~graph ~bindings ~input ~features plan] executes [plan]
    once per feature matrix, with that matrix bound to [input], and returns
    the outputs in request order. [bindings] must bind every other plan
    input. Raises [Invalid_argument] on an empty batch or a feature matrix
    whose row count is not the graph's node count, and
    {!Granii_core.Executor.Execution_error} on unbound inputs. *)
