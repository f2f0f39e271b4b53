(* Startup auto-calibration: a bounded micro-probe pass that re-anchors the
   analytic [Hw_profile] constants to the actual host (generalizing the
   original parallel micro-bench). Each probe is a tight loop over
   preallocated buffers, repeated until its slice of the time budget is
   spent, measuring one roofline axis:

   - dense:  the library GEMM on a 64x64x64 tile       -> dense_gflops
   - sparse: an 8-per-row indirect multiply-accumulate -> sparse_gflops
   - stream: a sequential sum over a large array       -> stream_gbps
   - random: a gather-sum through a shuffled index map -> random_gbps

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
   elapse, at least once; the rate is total work / total elapsed. *)
let timed_rate ~slice probe =
  let t0 = Timer.wall () in
  let work = ref 0. in
  let reps = ref 0 in
  while !reps = 0 || Timer.wall () -. t0 < slice do
    work := !work +. probe ();
    incr reps
  done;
  let dt = Timer.wall () -. t0 in
  if dt > 0. then !work /. dt else !work /. 1e-9

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
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. Array.unsafe_get x i
    done;
    ignore (Sys.opaque_identity !acc);
    (* bytes streamed *)
    8. *. float_of_int n

(* LCG-shuffled indices: every load misses the prefetcher. *)
let lcg_indices n =
  let idx = Array.make n 0 in
  let state = ref 123_456_789 in
  for i = 0 to n - 1 do
    state := ((!state * 1_103_515_245) + 12_345) land 0x3FFFFFFF;
    idx.(i) <- !state mod n
  done;
  idx

let random_probe () =
  let n = 4 * 1024 * 1024 in
  let x = Array.init n (fun i -> float_of_int (i land 1023)) in
  let idx = lcg_indices n in
  fun () ->
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. Array.unsafe_get x (Array.unsafe_get idx i)
    done;
    ignore (Sys.opaque_identity !acc);
    (* randomly-touched bytes (the value loads; index traffic is streamed) *)
    8. *. float_of_int n

let sparse_probe () =
  let rows = 128 * 1024 and deg = 8 in
  let nnz = rows * deg in
  let x = Array.init rows (fun i -> float_of_int (i land 255)) in
  let vals = Array.make nnz 1.000_01 in
  let idx = lcg_indices nnz in
  let idx = Array.map (fun i -> i mod rows) idx in
  let y = Array.make rows 0. in
  fun () ->
    for r = 0 to rows - 1 do
      let acc = ref 0. in
      for j = r * deg to ((r + 1) * deg) - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get vals j
             *. Array.unsafe_get x (Array.unsafe_get idx j))
      done;
      Array.unsafe_set y r !acc
    done;
    ignore (Sys.opaque_identity y.(0));
    (* flops *)
    2. *. float_of_int nnz

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
