(** Liveness analysis over a straight-line {!Plan.t}.

    Plans are SSA-like — step [i] defines value [t_i] once; later steps read
    it by index — so a single scan yields each value's last use. "Last" is
    in execution order: setup steps first, then per-iteration steps, each
    in plan order — the order {!Executor} runs them in. The executor uses
    {!dead_after} to return an intermediate's buffer to the
    {!Granii_tensor.Workspace.t} the moment its last reader retires,
    bounding live memory by {!max_live} values instead of one buffer per
    step. *)

type t

val analyze : Plan.t -> t

val last_use : t -> int -> int
(** [last_use l i] is the index of the step reading [t_i] last in
    execution order; [max_int] if [t_i] is the plan output (it never dies),
    [-1] if nothing reads it. Raises [Invalid_argument] out of range. *)

val dead_after : t -> int -> int list
(** [dead_after l j] lists the values whose last reader is step [j] (a
    value no step reads dies after its own step). The plan output appears
    in no list. *)

val output : t -> int option
(** The step index backing the plan output, if the output is computed. *)

val max_live : t -> int
(** High-water mark of simultaneously live values — the buffer count an
    executor recycling via {!dead_after} actually needs. *)

val pp : Format.formatter -> t -> unit
