(** Analytic (roofline) cost model for sparse/dense kernels.

    Predicts the runtime of each kernel on a {!Hw_profile.t} as
    [max(compute, memory) + launch], with separate throughputs for dense and
    irregular FLOPs and for streamed vs. randomly-gathered bytes. This model
    plays two roles:

    - it {e is} the simulated hardware: `Executor` in simulate mode charges
      each primitive the time predicted here (plus deterministic jitter), and
      the profiling data that trains GRANII's learned cost models is generated
      from it — the learned models never see the formulas, only samples;
    - it serves as the input-oblivious "analytic" ablation baseline against
      the learned models in the Table VI bench. *)

type kernel =
  | Gemm of { m : int; k : int; n : int }
      (** dense {m (m \times k) \cdot (k \times n)} *)
  | Spmm of { rows : int; nnz : int; k : int; weighted : bool }
      (** sparse-times-dense; [weighted = false] skips the value stream *)
  | Dense_sparse_mm of { rows : int; nnz : int; cols : int; k : int }
      (** dense-times-sparse scatter form: {m (rows \times k)} dense by a
          sparse with [nnz] entries and [cols] columns *)
  | Sddmm of { nnz : int; k : int }
      (** sampled dense-dense with inner dimension [k]; [k = 1] is the
          rank-1 normalization SDDMM *)
  | Row_broadcast of { n : int; k : int }
  | Col_broadcast of { n : int; k : int }
  | Diag_scale_sparse of { nnz : int }
  | Diag_combine of { n : int }  (** pointwise product of two diagonals *)
  | Elementwise of { n : int; k : int; flops_per_elt : float }
      (** activations and similar maps over an {m n \times k} tensor *)
  | Edge_softmax of { nnz : int }
  | Degree_binning of { n : int; nnz : int; avg_collisions : float }
      (** WiseGraph-style scatter-add binning with atomic contention
          proportional to the average writers per bin (Sec. VI-C1) *)
  | Degree_rowptr of { n : int }
      (** degree from CSR row pointers: a cheap streaming diff *)

val flops : kernel -> float
(** Floating-point operations the kernel performs. *)

val bytes_streamed : kernel -> float
(** Bytes moved with streaming (prefetchable) access, assuming 4-byte
    elements. *)

val bytes_random : kernel -> float
(** Bytes moved with data-dependent random access. *)

val random_working_set : kernel -> float
(** Distinct bytes the random-access stream touches (e.g. the gathered
    dense operand of an SpMM). When this fits in the profile's
    [cache_bytes], the gathers are cache hits after the first touch and are
    charged at streaming rate in {!time}; [0.] means the kernel has no
    random stream. *)

val is_dense_compute : kernel -> bool
(** Whether the kernel runs at dense ([Gemm]) or irregular throughput. *)

val time : ?threads:int -> Hw_profile.t -> kernel -> float
(** Predicted runtime in seconds, noise-free. [?threads] (default [1])
    models the multicore engine: the compute term scales by
    [1 + 0.85 (t - 1)], the memory term by the much flatter
    [1 + 0.25 (t - 1)] (bandwidth is shared), atomics pay extra contention,
    and [t] is clamped to the profile's [cores]. Random traffic is split by
    cache residency: the fraction [min 1 (cache_bytes / working_set)] of
    {!bytes_random} is charged at streaming rate, the rest at random rate —
    this makes sparse kernel cost input-size-aware (small graphs keep their
    gathered operands cache-resident; large ones pay full gather cost). *)

val time_noisy : ?threads:int -> Hw_profile.t -> seed:int -> kernel -> float
(** {!time} scaled by a deterministic jitter in
    [[1 - noise, 1 + noise]] derived from [seed] and the kernel. The
    kernel's hash is taken as the variant was laid out before the
    hybrid-format SpMM constructor was deleted, so every jitter, and every
    simulated table built on one, keeps its value. *)

val pp : Format.formatter -> kernel -> unit
