(** Hardware profiles — the three testbed machines of the paper (Sec. V).

    The paper evaluates on a Xeon CPU, an A100 and an H100. In this sealed
    container GPUs are unavailable, so each machine is modeled by a small set
    of roofline parameters consumed by {!Kernel_model}. The parameters are
    calibrated to the published characteristics of each platform; what
    matters for reproducing the paper's phenomena is the {e relative}
    movement they induce (dense ops get progressively cheaper from CPU to
    A100 to H100 — Fig. 2 — and the A100 pays most for atomic-heavy binning —
    Sec. VI-C1). *)

type t = {
  name : string;
  cores : int;
  (** independent execution units (CPU cores / GPU SMs): the ceiling the
      kernel model clamps a requested thread count to *)
  dense_gflops : float;
  (** sustained dense-GEMM throughput, GFLOP/s *)
  sparse_gflops : float;
  (** sustained FLOP throughput for irregular sparse kernels, GFLOP/s *)
  stream_gbps : float;
  (** streaming memory bandwidth, GB/s *)
  random_gbps : float;
  (** effective bandwidth for random gathers (SpMM row fetches), GB/s *)
  cache_bytes : float;
  (** capacity of the last-level cache: random traffic whose working set
      fits here is served at streaming rate instead (see
      {!Kernel_model.time}) *)
  launch_overhead_s : float;
  (** fixed per-kernel cost (GPU launch latency; ~0 on CPU) *)
  atomic_ns : float;
  (** base cost of one atomic scatter-add update, nanoseconds *)
  atomic_contention_factor : float;
  (** multiplier growth per unit of average bin collision: an atomic update
      into a bin shared by [d] writers costs
      [atomic_ns * (1 + factor * d)] *)
  noise : float;
  (** relative amplitude of the deterministic run-to-run jitter *)
}

val cpu : t
(** Intel Xeon Gold 6348-class CPU (the paper's CPU testbed). *)

val a100 : t
(** NVIDIA A100: high bandwidth, strong dense throughput, expensive
    contended atomics. *)

val h100 : t
(** NVIDIA H100: highest dense throughput and bandwidth, improved atomics. *)

val all : t list
(** [cpu; a100; h100]. *)

val find : string -> t
(** Case-insensitive lookup by name. Raises [Not_found]. *)

val pp : Format.formatter -> t -> unit
