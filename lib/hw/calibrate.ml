(* Startup auto-calibration: a bounded micro-probe pass that re-anchors the
   analytic [Hw_profile] constants to the actual host (generalizing the
   original parallel micro-bench). Each probe is a tight loop over
   preallocated buffers, repeated until its slice of the time budget is
   spent, measuring one roofline axis with the best kernel the repo has for
   it, so each rate is a peak and a roofline bound built from the four is a
   bound:

   - dense:  the library GEMM on a 64x64x64 tile           -> dense_gflops
   - sparse: the library SpMM on a cache-resident random CSR -> sparse_gflops
   - stream: a sequential sum over a large array, eight
             independent accumulators                        -> stream_gbps
   - random: whole cache lines gathered through a shuffled
             line map, eight independent accumulators        -> random_gbps

   A single accumulator would measure the latency of a floating-point add
   (one element per add latency), not bandwidth. The random probe gathers
   whole lines from a cache-resident table because that is how the
   executor's gathers run: SpMM and SDDMM fetch k-wide rows of a dense
   operand that fits in cache; a word-at-a-time gather would undercount
   each fetched line eightfold.

   The probes are single-core; machine-level profile constants are
   extrapolated with the base profile's core count and a fixed
   parallel-efficiency model (compute scales near-linearly, bandwidth
   saturates after a few cores). The result is clamped into sane ranges so
   a noisy probe on a loaded host can never produce a degenerate profile. *)

type measurement = {
  dense_gflops : float;
  sparse_gflops : float;
  stream_gbps : float;
  random_gbps : float;
  elapsed_s : float;
}

let default_budget_s = 0.2

(* Repeat [probe] (returning work units done per rep) until [slice] seconds
   elapse, at least once. The rate is the best single rep's, the peak the
   host reached: a rep slowed by another tenant or a preemption lowers an
   average but not a peak. *)
let timed_rate ~slice probe =
  let t0 = Timer.wall () in
  let best = ref 0. in
  let reps = ref 0 in
  while !reps = 0 || Timer.wall () -. t0 < slice do
    let r0 = Timer.wall () in
    let w = probe () in
    best := Float.max !best (w /. Float.max 1e-9 (Timer.wall () -. r0));
    incr reps
  done;
  !best

(* The library GEMM itself ([Dense.matmul]'s packed, register-tiled
   kernel), so the dense peak is the rate the executor's GEMM can reach
   rather than a naive loop's. The output goes back to a workspace each rep,
   so the probe allocates nothing in steady state. *)
let dense_probe () =
  let n = 64 in
  let module Dense = Granii_tensor.Dense in
  let a = Dense.create n n 1.000_1 and b = Dense.create n n 0.999_9 in
  let ws = Some (Granii_tensor.Workspace.create ()) in
  fun () ->
    let c = Dense.matmul ?ws a b in
    ignore (Sys.opaque_identity c.Dense.data.(0));
    Granii_tensor.Workspace.give_back ws c.Dense.data;
    (* flops *)
    2. *. float_of_int (n * n * n)

let stream_probe () =
  let n = 4 * 1024 * 1024 in
  let x = Array.init n (fun i -> float_of_int (i land 1023)) in
  fun () ->
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    let a4 = ref 0. and a5 = ref 0. and a6 = ref 0. and a7 = ref 0. in
    let i = ref 0 in
    while !i < n do
      let j = !i in
      a0 := !a0 +. Array.unsafe_get x j;
      a1 := !a1 +. Array.unsafe_get x (j + 1);
      a2 := !a2 +. Array.unsafe_get x (j + 2);
      a3 := !a3 +. Array.unsafe_get x (j + 3);
      a4 := !a4 +. Array.unsafe_get x (j + 4);
      a5 := !a5 +. Array.unsafe_get x (j + 5);
      a6 := !a6 +. Array.unsafe_get x (j + 6);
      a7 := !a7 +. Array.unsafe_get x (j + 7);
      i := j + 8
    done;
    ignore (Sys.opaque_identity (!a0 +. !a1 +. !a2 +. !a3 +. !a4 +. !a5 +. !a6 +. !a7));
    (* bytes streamed *)
    8. *. float_of_int n

(* LCG-shuffled indices in [0, n): every load misses the prefetcher. *)
let lcg_indices ~len n =
  let idx = Array.make len 0 in
  let state = ref 123_456_789 in
  for i = 0 to len - 1 do
    state := ((!state * 1_103_515_245) + 12_345) land 0x3FFFFFFF;
    idx.(i) <- !state mod n
  done;
  idx

(* A 512 KB table (the size of a 4,096-row, 16-wide dense operand) read one
   64-byte line at a time in shuffled order. *)
let random_probe () =
  let line = 8 and lines = 8 * 1024 and gathers = 128 * 1024 in
  let x = Array.init (lines * line) (fun i -> float_of_int (i land 1023)) in
  let base = Array.map (fun l -> l * line) (lcg_indices ~len:gathers lines) in
  fun () ->
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    let a4 = ref 0. and a5 = ref 0. and a6 = ref 0. and a7 = ref 0. in
    for g = 0 to gathers - 1 do
      let b = Array.unsafe_get base g in
      a0 := !a0 +. Array.unsafe_get x b;
      a1 := !a1 +. Array.unsafe_get x (b + 1);
      a2 := !a2 +. Array.unsafe_get x (b + 2);
      a3 := !a3 +. Array.unsafe_get x (b + 3);
      a4 := !a4 +. Array.unsafe_get x (b + 4);
      a5 := !a5 +. Array.unsafe_get x (b + 5);
      a6 := !a6 +. Array.unsafe_get x (b + 6);
      a7 := !a7 +. Array.unsafe_get x (b + 7)
    done;
    ignore (Sys.opaque_identity (!a0 +. !a1 +. !a2 +. !a3 +. !a4 +. !a5 +. !a6 +. !a7));
    (* randomly-touched bytes (the line loads; the line map is streamed) *)
    8. *. float_of_int (gathers * line)

(* The library SpMM ([Spmm.run]'s register-strip kernel) on a random
   2,048-row CSR with 16 entries per row and a 32-wide dense operand: the
   operand (512 KB) and the structure stay cache-resident. Unweighted, the
   fastest aggregation, still counted at the kernel model's two flops per
   (entry, column). The output goes back to a workspace each rep. *)
let sparse_probe () =
  let rows = 2048 and deg = 16 and k = 32 in
  let module Csr = Granii_sparse.Csr in
  let nnz = rows * deg in
  let a =
    Csr.make ~n_rows:rows ~n_cols:rows
      ~row_ptr:(Array.init (rows + 1) (fun i -> i * deg))
      ~col_idx:(lcg_indices ~len:nnz rows) ~values:None
  in
  let b = Granii_tensor.Dense.random ~seed:7 rows k in
  let ws = Some (Granii_tensor.Workspace.create ()) in
  fun () ->
    let c = Granii_sparse.Spmm.run ?ws a b in
    ignore (Sys.opaque_identity c.Granii_tensor.Dense.data.(0));
    Granii_tensor.Workspace.give_back ws c.Granii_tensor.Dense.data;
    (* flops *)
    2. *. float_of_int (nnz * k)

let measure ?(budget_s = default_budget_s) () =
  if budget_s <= 0. then invalid_arg "Calibrate.measure: budget_s must be > 0";
  let slice = budget_s /. 4. in
  let t0 = Timer.wall () in
  let dense = timed_rate ~slice (dense_probe ()) in
  let sparse = timed_rate ~slice (sparse_probe ()) in
  let stream = timed_rate ~slice (stream_probe ()) in
  let random = timed_rate ~slice (random_probe ()) in
  { dense_gflops = dense /. 1e9;
    sparse_gflops = sparse /. 1e9;
    stream_gbps = stream /. 1e9;
    random_gbps = random /. 1e9;
    elapsed_s = Timer.wall () -. t0 }

let clamp lo hi v = Float.max lo (Float.min hi v)

(* Single-core probe rates -> machine-level constants: compute axes scale
   with cores at 70% parallel efficiency; bandwidth axes saturate after a
   handful of cores (memory channels, not cores, are the limit). *)
let reanchor ?(base = Hw_profile.cpu) (m : measurement) =
  let cores = float_of_int base.Hw_profile.cores in
  let bw_scale = Float.min 4. cores in
  { base with
    Hw_profile.name = base.Hw_profile.name ^ "-host";
    dense_gflops = clamp 1. 1e5 (m.dense_gflops *. cores *. 0.7);
    sparse_gflops = clamp 0.1 1e4 (m.sparse_gflops *. cores *. 0.5);
    stream_gbps = clamp 1. 1e4 (m.stream_gbps *. bw_scale);
    random_gbps = clamp 0.05 1e3 (m.random_gbps *. bw_scale) }

let profile ?budget_s ?base () = reanchor ?base (measure ?budget_s ())
