type t = {
  name : string;
  cores : int;
  dense_gflops : float;
  sparse_gflops : float;
  stream_gbps : float;
  random_gbps : float;
  cache_bytes : float;
  launch_overhead_s : float;
  atomic_ns : float;
  atomic_contention_factor : float;
  noise : float;
}

let cpu =
  { name = "CPU";
    (* Xeon Gold 6348: 28 cores; the multicore engine tops out there. *)
    cores = 28;
    dense_gflops = 150.;
    sparse_gflops = 12.;
    stream_gbps = 80.;
    random_gbps = 6.;
    (* 42 MB of shared L3 *)
    cache_bytes = 42e6;
    launch_overhead_s = 0.;
    (* Sequential scatter-adds have no contention at all. *)
    atomic_ns = 1.;
    atomic_contention_factor = 0.;
    noise = 0.08 }

let a100 =
  { name = "A100";
    cores = 108;
    dense_gflops = 18_000.;
    sparse_gflops = 900.;
    stream_gbps = 1_500.;
    random_gbps = 350.;
    (* 40 MB L2 *)
    cache_bytes = 40e6;
    launch_overhead_s = 6e-6;
    (* The paper attributes WiseGraph's dense-graph slowdowns to the atomic
       binning kernel; the A100 pays the most for contended atomics. *)
    atomic_ns = 2.2;
    atomic_contention_factor = 0.1;
    noise = 0.04 }

let h100 =
  { name = "H100";
    cores = 132;
    dense_gflops = 55_000.;
    sparse_gflops = 1_800.;
    stream_gbps = 3_000.;
    random_gbps = 700.;
    (* 50 MB L2 *)
    cache_bytes = 50e6;
    launch_overhead_s = 5e-6;
    atomic_ns = 0.35;
    atomic_contention_factor = 0.012;
    noise = 0.04 }

let all = [ cpu; a100; h100 ]

let find name =
  let n = String.uppercase_ascii name in
  List.find (fun p -> String.equal (String.uppercase_ascii p.name) n) all

let pp ppf p =
  Format.fprintf ppf "%s(dense=%.0fGF sparse=%.0fGF stream=%.0fGB/s)" p.name
    p.dense_gflops p.sparse_gflops p.stream_gbps
