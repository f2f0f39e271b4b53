type kernel =
  | Gemm of { m : int; k : int; n : int }
  | Spmm of { rows : int; nnz : int; k : int; weighted : bool }
  | Spmm_hybrid of
      { rows : int; nnz : int; k : int; weighted : bool; packing : float }
  | Dense_sparse_mm of { rows : int; nnz : int; cols : int; k : int }
  | Sddmm of { nnz : int; k : int }
  | Row_broadcast of { n : int; k : int }
  | Col_broadcast of { n : int; k : int }
  | Diag_scale_sparse of { nnz : int }
  | Diag_combine of { n : int }
  | Elementwise of { n : int; k : int; flops_per_elt : float }
  | Edge_softmax of { nnz : int }
  | Degree_binning of { n : int; nnz : int; avg_collisions : float }
  | Degree_rowptr of { n : int }
  | Layout_pass of { n : int; nnz : int }

let f = float_of_int
let elt_bytes = 4.

let flops = function
  | Gemm { m; k; n } -> 2. *. f m *. f k *. f n
  | Spmm { nnz; k; _ } | Spmm_hybrid { nnz; k; _ } -> 2. *. f nnz *. f k
  | Dense_sparse_mm { rows; nnz; _ } -> 2. *. f rows *. f nnz
  | Sddmm { nnz; k } -> 2. *. f nnz *. f k
  | Row_broadcast { n; k } | Col_broadcast { n; k } -> f n *. f k
  | Diag_scale_sparse { nnz } -> 2. *. f nnz
  | Diag_combine { n } -> f n
  | Elementwise { n; k; flops_per_elt } -> f n *. f k *. flops_per_elt
  (* exp + max + sum + divide per edge; exp counted as ~8 flops *)
  | Edge_softmax { nnz } -> 12. *. f nnz
  | Degree_binning { nnz; _ } -> f nnz
  | Degree_rowptr { n } -> f n
  (* counting passes: comparisons and index arithmetic, no FP *)
  | Layout_pass { nnz; _ } -> f nnz

let bytes_streamed = function
  | Gemm { m; k; n } -> elt_bytes *. ((f m *. f k) +. (f k *. f n) +. (2. *. f m *. f n))
  | Spmm { rows; nnz; k; weighted } ->
      (* indices, optional values, and the streamed output *)
      elt_bytes *. ((f nnz *. if weighted then 2. else 1.) +. (f rows *. f k))
  | Spmm_hybrid { rows; nnz; k; weighted; packing } ->
      (* the slab streams its padding too: index traffic inflates by the
         reciprocal of the packing efficiency *)
      let pad = 1. /. Float.max 0.05 packing in
      elt_bytes
      *. ((f nnz *. pad *. if weighted then 2. else 1.) +. (f rows *. f k))
  | Dense_sparse_mm { rows; nnz; cols; k } ->
      elt_bytes *. ((f rows *. f k) +. (2. *. f nnz) +. (f rows *. f cols))
  | Sddmm { nnz; _ } -> elt_bytes *. 2. *. f nnz
  | Row_broadcast { n; k } | Col_broadcast { n; k } ->
      elt_bytes *. ((2. *. f n *. f k) +. f n)
  | Diag_scale_sparse { nnz } -> elt_bytes *. 3. *. f nnz
  | Diag_combine { n } -> elt_bytes *. 3. *. f n
  | Elementwise { n; k; _ } -> elt_bytes *. 2. *. f n *. f k
  | Edge_softmax { nnz } -> elt_bytes *. 4. *. f nnz
  | Degree_binning { n; nnz; _ } -> elt_bytes *. (f nnz +. f n)
  | Degree_rowptr { n } -> elt_bytes *. 2. *. f n
  (* read indices + values, write the re-indexed copy, plus the prefix *)
  | Layout_pass { n; nnz } -> elt_bytes *. ((4. *. f nnz) +. (2. *. f n))

let bytes_random = function
  | Gemm _ -> 0.
  | Spmm { nnz; k; _ } | Spmm_hybrid { nnz; k; _ } ->
      elt_bytes *. f nnz *. f k
  | Dense_sparse_mm { nnz; k; _ } -> elt_bytes *. f nnz *. f k
  | Sddmm { nnz; k } -> elt_bytes *. 2. *. f nnz *. f k
  | Row_broadcast _ | Col_broadcast _ | Diag_combine _ | Elementwise _
  | Degree_rowptr _ ->
      0.
  | Diag_scale_sparse { nnz } -> elt_bytes *. f nnz
  | Edge_softmax _ -> 0.
  | Degree_binning { nnz; _ } -> elt_bytes *. f nnz
  (* the scatter of the counting pass *)
  | Layout_pass { nnz; _ } -> elt_bytes *. f nnz

(* Distinct bytes touched by the random-access stream: when this working
   set fits in the profile's last-level cache, the "random" gathers are
   really cache hits after the first touch and run at streaming rate. *)
let random_working_set = function
  | Gemm _ -> 0.
  (* the gathered operand is the full dense matrix B *)
  | Spmm { rows; k; _ } | Spmm_hybrid { rows; k; _ } ->
      elt_bytes *. f rows *. f k
  (* scatter targets are row-local: one output row resident at a time *)
  | Dense_sparse_mm { cols; _ } -> elt_bytes *. f cols
  (* distinct dense rows ~ nnz / avg_degree (~8), two operands of width k *)
  | Sddmm { nnz; k } -> elt_bytes *. f nnz *. f k /. 4.
  (* the gathered diagonal, one entry per distinct column *)
  | Diag_scale_sparse { nnz } -> elt_bytes *. f nnz /. 8.
  | Degree_binning { n; _ } -> elt_bytes *. f n
  (* scatter targets cover the whole re-indexed copy *)
  | Layout_pass { nnz; _ } -> elt_bytes *. f nnz
  | Row_broadcast _ | Col_broadcast _ | Diag_combine _ | Elementwise _
  | Edge_softmax _ | Degree_rowptr _ ->
      0.

let is_dense_compute = function
  | Gemm _ -> true
  | Spmm _ | Spmm_hybrid _ | Dense_sparse_mm _ | Sddmm _ | Row_broadcast _
  | Col_broadcast _ | Diag_scale_sparse _ | Diag_combine _ | Elementwise _
  | Edge_softmax _ | Degree_binning _ | Degree_rowptr _ | Layout_pass _ ->
      false

(* Marginal efficiency of each extra thread on the compute-bound part:
   static row chunking leaves some imbalance and the domains share caches, so
   n threads deliver 1 + 0.85 (n - 1) rather than n. Bandwidth-bound work is
   shared across cores and gains much less per thread. *)
let compute_efficiency = 0.85
let memory_efficiency = 0.25

let time ?(threads = 1) ?(gather_discount = 0.) (p : Hw_profile.t) kernel =
  let t = max 1 (min threads p.Hw_profile.cores) in
  let compute_speedup = 1. +. (compute_efficiency *. float_of_int (t - 1)) in
  let memory_speedup = 1. +. (memory_efficiency *. float_of_int (t - 1)) in
  let compute_throughput =
    (if is_dense_compute kernel then p.Hw_profile.dense_gflops
     else p.Hw_profile.sparse_gflops)
    *. 1e9
  in
  let compute_t = flops kernel /. compute_throughput /. compute_speedup in
  let random_t =
    (* locality credit: packing + ordering shrink the effective random
       traffic (they turn scattered gathers into near-neighbor reuse) *)
    let br =
      bytes_random kernel *. (1. -. Float.max 0. (Float.min 1. gather_discount))
    in
    if br = 0. then 0.
    else
      let ws = random_working_set kernel in
      (* fraction of random traffic served from cache: once the working set
         fits in the LLC the gathers hit after the first touch and run at
         streaming rate *)
      let hit = if ws <= 0. then 1. else Float.min 1. (p.Hw_profile.cache_bytes /. ws) in
      (hit *. br /. (p.Hw_profile.stream_gbps *. 1e9))
      +. ((1. -. hit) *. br /. (p.Hw_profile.random_gbps *. 1e9))
  in
  let memory_t =
    ((bytes_streamed kernel /. (p.Hw_profile.stream_gbps *. 1e9)) +. random_t)
    /. memory_speedup
  in
  let atomic_t =
    match kernel with
    | Degree_binning { nnz; avg_collisions; _ } ->
        (* contention grows with concurrent writers *)
        f nnz *. p.Hw_profile.atomic_ns *. 1e-9
        *. (1. +. (p.Hw_profile.atomic_contention_factor *. avg_collisions))
        *. (1. +. (p.Hw_profile.atomic_contention_factor *. float_of_int (t - 1)))
    | Gemm _ | Spmm _ | Spmm_hybrid _ | Dense_sparse_mm _ | Sddmm _ | Row_broadcast _ | Col_broadcast _
    | Diag_scale_sparse _ | Diag_combine _ | Elementwise _ | Edge_softmax _
    | Degree_rowptr _ | Layout_pass _ ->
        0.
  in
  Float.max compute_t memory_t +. atomic_t +. p.Hw_profile.launch_overhead_s

let kernel_hash kernel =
  Hashtbl.hash kernel

let time_noisy ?threads (p : Hw_profile.t) ~seed kernel =
  let base = time ?threads p kernel in
  let rng = Granii_tensor.Prng.create (seed + (31 * kernel_hash kernel)) in
  let jitter = 1. +. (p.Hw_profile.noise *. ((2. *. Granii_tensor.Prng.float rng) -. 1.)) in
  base *. jitter

let pp ppf = function
  | Gemm { m; k; n } -> Format.fprintf ppf "gemm(%dx%dx%d)" m k n
  | Spmm { rows; nnz; k; weighted } ->
      Format.fprintf ppf "spmm(rows=%d,nnz=%d,k=%d%s)" rows nnz k
        (if weighted then ",w" else "")
  | Spmm_hybrid { rows; nnz; k; weighted; packing } ->
      Format.fprintf ppf "spmm_hyb(rows=%d,nnz=%d,k=%d%s,pack=%.2f)" rows nnz
        k
        (if weighted then ",w" else "")
        packing
  | Dense_sparse_mm { rows; nnz; cols; k } ->
      Format.fprintf ppf "dspmm(rows=%d,nnz=%d,cols=%d,k=%d)" rows nnz cols k
  | Sddmm { nnz; k } -> Format.fprintf ppf "sddmm(nnz=%d,k=%d)" nnz k
  | Row_broadcast { n; k } -> Format.fprintf ppf "row_bcast(%dx%d)" n k
  | Col_broadcast { n; k } -> Format.fprintf ppf "col_bcast(%dx%d)" n k
  | Diag_scale_sparse { nnz } -> Format.fprintf ppf "diag_sp_scale(nnz=%d)" nnz
  | Diag_combine { n } -> Format.fprintf ppf "diag_combine(n=%d)" n
  | Elementwise { n; k; _ } -> Format.fprintf ppf "elementwise(%dx%d)" n k
  | Edge_softmax { nnz } -> Format.fprintf ppf "edge_softmax(nnz=%d)" nnz
  | Degree_binning { n; nnz; _ } -> Format.fprintf ppf "degree_binning(n=%d,nnz=%d)" n nnz
  | Degree_rowptr { n } -> Format.fprintf ppf "degree_rowptr(n=%d)" n
  | Layout_pass { n; nnz } -> Format.fprintf ppf "layout_pass(n=%d,nnz=%d)" n nnz
