(* Locality engine: what graph reordering and the hybrid (ELL slab + CSR
   tail) format buy on the host CPU, and how many iterations the one-time
   layout work takes to amortize. All numbers here are real measurements;
   every localized result is checked bitwise against the legacy CSR path
   after inverse permutation (the engine's correctness contract). *)

open Bench_common
open Granii_core
module Csr = Granii_sparse.Csr
module Hybrid = Granii_sparse.Hybrid
module Spmm = Granii_sparse.Spmm
module Sddmm = Granii_sparse.Sddmm
module Dense = Granii_tensor.Dense
module G = Granii_graph
module Reorder = G.Reorder
module Gnn = Granii_gnn

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

let dense_bits_equal (a : Dense.t) (b : Dense.t) =
  a.Dense.rows = b.Dense.rows && a.Dense.cols = b.Dense.cols
  && bits_equal a.Dense.data b.Dense.data

(* Best-of-[reps] wall time (first call additionally warms the caches). *)
let time_best ?(reps = 3) f =
  ignore (f ());
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let r, t = Granii_hw.Timer.measure_wall f in
    if t < !best then best := t;
    result := Some r
  done;
  (Option.get !result, !best)

(* ---- kernel-level: SpMM / SDDMM under each layout ---- *)

let kernel_section (graph : G.Graph.t) ~k =
  let m = G.Graph.with_self_loops graph in
  let n = m.Csr.n_rows in
  let nnz = Csr.nnz m in
  let b = Dense.random ~seed:1 n k in
  let reference, t_csr = time_best (fun () -> Spmm.run m b) in
  Printf.printf "%s (n=%d nnz=%d) k=%d: CSR SpMM %8.3f ms\n" graph.G.Graph.name
    n nnz k (ms t_csr);
  let report strategy =
    let r, reorder_s =
      Granii_hw.Timer.measure_wall (fun () -> Reorder.compute strategy m)
    in
    let pm, permute_s =
      match strategy with
      | Reorder.Identity -> (m, 0.)
      | _ -> Granii_hw.Timer.measure_wall (fun () -> Reorder.permute_csr r m)
    in
    let h, build_s = Granii_hw.Timer.measure_wall (fun () -> Hybrid.of_csr pm) in
    let pb =
      match strategy with
      | Reorder.Identity -> b
      | _ -> Reorder.permute_dense_rows r b
    in
    let out, t_hyb = time_best (fun () -> Hybrid.spmm h pb) in
    let out =
      match strategy with
      | Reorder.Identity -> out
      | _ -> Reorder.inverse_dense_rows r out
    in
    let bitwise = dense_bits_equal out reference in
    let layout_s = reorder_s +. permute_s +. build_s in
    let gain = t_csr -. t_hyb in
    let amortize = if gain > 0. then layout_s /. gain else infinity in
    Printf.printf
      "  %-8s+hybrid %8.3f ms  (%.2fx, pack %.2f)  layout %6.3f ms -> \
       amortized after %s iterations  %s\n"
      (Reorder.strategy_to_string strategy)
      (ms t_hyb) (t_csr /. t_hyb) (Hybrid.packing h) (ms layout_s)
      (if Float.is_finite amortize then Printf.sprintf "%.1f" amortize
       else "inf")
      (if bitwise then "[bitwise ok]" else "[MISMATCH]");
    json_add ~bench:"locality"
      [ ("kind", S "spmm");
        ("graph", S graph.G.Graph.name);
        ("n", I n);
        ("nnz", I nnz);
        ("k", I k);
        ("strategy", S (Reorder.strategy_to_string strategy));
        ("format", S "hybrid");
        ("packing", F (Hybrid.packing h));
        ("t_csr_s", F t_csr);
        ("t_hybrid_s", F t_hyb);
        ("speedup", F (t_csr /. t_hyb));
        ("reorder_s", F reorder_s);
        ("permute_s", F permute_s);
        ("build_s", F build_s);
        ("layout_s", F layout_s);
        ("gain_per_iteration_s", F gain);
        ("amortize_iterations",
         F (if Float.is_finite amortize then amortize else -1.));
        ("bitwise", B bitwise) ]
  in
  List.iter report [ Reorder.Identity; Reorder.Degree_sort; Reorder.Rcm ];
  (* SDDMM under the winning layout: values land back in CSR order, so the
     comparison needs no inverse permutation of the structure — we gather
     the permuted result's values through the entry permutation implied by
     running on the unpermuted matrix instead (identity ordering only). *)
  let a = Dense.random ~seed:2 n k and b2 = Dense.random ~seed:3 k n in
  let sd_ref, t_sddmm_csr = time_best (fun () -> Sddmm.run m a b2) in
  let h0 = Hybrid.of_csr m in
  let sd_hyb, t_sddmm_hyb = time_best (fun () -> Hybrid.sddmm h0 a b2) in
  let sd_ok =
    match (sd_ref.Csr.values, sd_hyb.Csr.values) with
    | Some v, Some w -> bits_equal v w
    | _ -> false
  in
  Printf.printf "  SDDMM: csr %8.3f ms, hybrid %8.3f ms (%.2fx)  %s\n"
    (ms t_sddmm_csr) (ms t_sddmm_hyb)
    (t_sddmm_csr /. t_sddmm_hyb)
    (if sd_ok then "[bitwise ok]" else "[MISMATCH]");
  json_add ~bench:"locality"
    [ ("kind", S "sddmm");
      ("graph", S graph.G.Graph.name);
      ("n", I n);
      ("nnz", I nnz);
      ("k", I k);
      ("t_csr_s", F t_sddmm_csr);
      ("t_hybrid_s", F t_sddmm_hyb);
      ("speedup", F (t_sddmm_csr /. t_sddmm_hyb));
      ("bitwise", B sd_ok) ]

(* ---- executor-level: a full GCN layer under the selected layout ---- *)

let executor_section (graph : G.Graph.t) ~k ~iterations =
  let model = Granii_mp.Mp_models.find "gcn" in
  let low, comp, _ = compiled model ~binned:false in
  let cm = Cost_oracle.analytic Granii_hw.Hw_profile.cpu in
  let localized =
    Granii.optimize_localized ~oracle:cm ~graph ~k_in:k ~k_out:k
      ~iterations comp
  in
  let plan =
    localized.Granii.ldecision.Granii.choice.Selector.candidate.Codegen.plan
  in
  let env = env_of graph ~k_in:k ~k_out:k in
  let params = Gnn.Layer.init_params ~seed:0 ~env low in
  let h = Dense.random ~seed:1 (G.Graph.n_nodes graph) k in
  let bindings = Gnn.Layer.bindings ~graph ~h params in
  let run locality =
    let engine =
      Engine.create_exn ~obs:!Bench_common.obs
        { Engine.default_config with locality }
    in
    Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph ~bindings
      ~iterations plan
  in
  let base = run Locality.default in
  let config =
    (* measure a non-default layout even when selection keeps the legacy
       path (small inputs are compute-bound in the model) *)
    if Locality.is_default localized.Granii.config then
      { Locality.strategy = Reorder.Degree_sort; format = Locality.Hybrid }
    else localized.Granii.config
  in
  let loc = run config in
  let bitwise =
    match (base.Executor.output, loc.Executor.output) with
    | Executor.Vdense x, Executor.Vdense y -> dense_bits_equal x y
    | _ -> false
  in
  let gain = base.Executor.iteration_time -. loc.Executor.iteration_time in
  let amortize =
    if gain > 0. then loc.Executor.layout_time /. gain else infinity
  in
  Printf.printf
    "GCN %s on %s (k=%d): %8.3f -> %8.3f ms/iteration, layout %6.3f ms \
     (amortized after %s iterations)  %s\n"
    plan.Plan.name graph.G.Graph.name k
    (ms base.Executor.iteration_time)
    (ms loc.Executor.iteration_time)
    (ms loc.Executor.layout_time)
    (if Float.is_finite amortize then Printf.sprintf "%.1f" amortize else "inf")
    (if bitwise then "[bitwise ok]" else "[MISMATCH]");
  json_add ~bench:"locality"
    [ ("kind", S "executor");
      ("graph", S graph.G.Graph.name);
      ("k", I k);
      ("plan", S plan.Plan.name);
      ("config", S (Locality.config_to_string config));
      ("selected", S (Locality.config_to_string localized.Granii.config));
      ("iteration_csr_s", F base.Executor.iteration_time);
      ("iteration_localized_s", F loc.Executor.iteration_time);
      ("speedup",
       F (base.Executor.iteration_time /. loc.Executor.iteration_time));
      ("layout_s", F loc.Executor.layout_time);
      ("amortize_iterations",
       F (if Float.is_finite amortize then amortize else -1.));
      ("bitwise", B bitwise) ]

let run () =
  section
    "Locality: reordering + hybrid format (host CPU, single thread, k=32)";
  let scale = if !smoke then 11 else 14 in
  let skewed = G.Generators.rmat ~scale ~edge_factor:16 () in
  let mesh =
    if !smoke then G.Generators.grid2d ~rows:48 ~cols:48 ()
    else G.Generators.grid2d ~rows:192 ~cols:192 ()
  in
  let k = 32 in
  kernel_section skewed ~k;
  kernel_section mesh ~k;
  print_newline ();
  executor_section skewed ~k ~iterations:(if !smoke then 5 else 20)
