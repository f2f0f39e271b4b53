open Granii_hw
open Test_util

let k_gemm = Kernel_model.Gemm { m = 1024; k = 256; n = 256 }
let k_spmm = Kernel_model.Spmm { rows = 1024; nnz = 100_000; k = 256; weighted = true }

let test_flops () =
  check_float "gemm flops" (2. *. 1024. *. 256. *. 256.) (Kernel_model.flops k_gemm);
  check_float "spmm flops" (2. *. 100_000. *. 256.) (Kernel_model.flops k_spmm);
  check_float "rowbcast flops" (1024. *. 8.)
    (Kernel_model.flops (Kernel_model.Row_broadcast { n = 1024; k = 8 }))

let test_positive_times () =
  List.iter
    (fun profile ->
      List.iter
        (fun kernel ->
          check_true "time is positive and finite"
            (let t = Kernel_model.time profile kernel in
             t > 0. && Float.is_finite t))
        [ k_gemm;
          k_spmm;
          Kernel_model.Sddmm { nnz = 5000; k = 16 };
          Kernel_model.Degree_binning { n = 100; nnz = 5000; avg_collisions = 50. };
          Kernel_model.Edge_softmax { nnz = 5000 };
          Kernel_model.Elementwise { n = 10; k = 10; flops_per_elt = 1. } ])
    Hw_profile.all

let test_dense_gets_cheaper_with_better_hw () =
  let t p = Kernel_model.time p k_gemm in
  check_true "cpu > a100 > h100 for dense"
    (t Hw_profile.cpu > t Hw_profile.a100 && t Hw_profile.a100 > t Hw_profile.h100)

let test_dense_sparse_ratio_shifts () =
  (* The Fig. 2 phenomenon: dense work shrinks relative to sparse work as
     hardware improves from CPU to H100. Use kernels large enough that GPU
     launch overhead is negligible. *)
  let big_gemm = Kernel_model.Gemm { m = 4096; k = 512; n = 512 } in
  let big_spmm = Kernel_model.Spmm { rows = 4096; nnz = 400_000; k = 512; weighted = true } in
  let ratio p = Kernel_model.time p big_gemm /. Kernel_model.time p big_spmm in
  check_true "dense/sparse ratio decreases with better hardware"
    (ratio Hw_profile.cpu > ratio Hw_profile.a100
    && ratio Hw_profile.a100 > ratio Hw_profile.h100)

let test_binning_quirk () =
  (* WiseGraph's binned degree kernel must be painful on the A100 for dense
     graphs and essentially free on the CPU (Sec. VI-C1). *)
  let dense_binning =
    Kernel_model.Degree_binning { n = 4096; nnz = 800_000; avg_collisions = 200. }
  in
  let cheap = Kernel_model.Degree_rowptr { n = 4096 } in
  let a100_pain =
    Kernel_model.time Hw_profile.a100 dense_binning
    /. Kernel_model.time Hw_profile.a100 cheap
  in
  let h100_pain =
    Kernel_model.time Hw_profile.h100 dense_binning
    /. Kernel_model.time Hw_profile.h100 cheap
  in
  check_true "binning much worse than rowptr on A100" (a100_pain > 50.);
  check_true "A100 suffers more than H100" (a100_pain > 4. *. h100_pain)

let test_monotone_in_size =
  qtest "kernel time monotone in problem size"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 1 64))
    (fun (m, k) ->
      let small = Kernel_model.Gemm { m; k; n = k } in
      let big = Kernel_model.Gemm { m = 2 * m; k; n = k } in
      Kernel_model.time Hw_profile.a100 big >= Kernel_model.time Hw_profile.a100 small)

let test_noise_bounded =
  qtest "noisy time stays within the profile's noise band"
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let base = Kernel_model.time Hw_profile.a100 k_spmm in
      let noisy = Kernel_model.time_noisy Hw_profile.a100 ~seed k_spmm in
      let band = Hw_profile.a100.Hw_profile.noise +. 1e-9 in
      Float.abs ((noisy /. base) -. 1.) <= band)

let test_noise_deterministic () =
  check_float "same seed, same jitter"
    (Kernel_model.time_noisy Hw_profile.h100 ~seed:5 k_gemm)
    (Kernel_model.time_noisy Hw_profile.h100 ~seed:5 k_gemm)

let test_profile_lookup () =
  check_true "find is case-insensitive"
    (String.equal (Hw_profile.find "h100").Hw_profile.name "H100");
  Alcotest.check_raises "unknown profile" Not_found (fun () ->
      ignore (Hw_profile.find "tpu"))

let test_timer () =
  let x, t = Timer.measure_wall (fun () -> 21 * 2) in
  check_int "result passed through" 42 x;
  check_true "non-negative time" (t >= 0.);
  let avg = Timer.measure_n_wall ~n:3 (fun () -> ignore (Array.make 100 0)) in
  check_true "average non-negative" (avg >= 0.)

let suite =
  [ Alcotest.test_case "kernel flops" `Quick test_flops;
    Alcotest.test_case "positive times" `Quick test_positive_times;
    Alcotest.test_case "dense hw ordering" `Quick test_dense_gets_cheaper_with_better_hw;
    Alcotest.test_case "dense/sparse ratio shift (Fig 2)" `Quick test_dense_sparse_ratio_shifts;
    Alcotest.test_case "binning quirk (Sec VI-C1)" `Quick test_binning_quirk;
    test_monotone_in_size;
    test_noise_bounded;
    Alcotest.test_case "noise determinism" `Quick test_noise_deterministic;
    Alcotest.test_case "profile lookup" `Quick test_profile_lookup;
    Alcotest.test_case "timer" `Quick test_timer ]
