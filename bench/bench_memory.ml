(* Memory-system behavior of the executor: per-iteration Gc allocation of a
   run that reuses nothing (every run on a fresh engine, so a cold arena)
   against a warm arena's steady state (must be bitwise identical), and the
   cache-tiled GEMM vs the untiled kernel. All numbers here are real
   host-CPU measurements. *)

open Bench_common
open Granii_core
module Dense = Granii_tensor.Dense
module G = Granii_graph
module Gnn = Granii_gnn

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

let value_equal (a : Executor.value) (b : Executor.value) =
  match (a, b) with
  | Executor.Vdense x, Executor.Vdense y ->
      x.Dense.rows = y.Dense.rows && x.Dense.cols = y.Dense.cols
      && bits_equal x.Dense.data y.Dense.data
  | Executor.Vdiag x, Executor.Vdiag y -> bits_equal x y
  | Executor.Vsparse x, Executor.Vsparse y -> (
      x.Granii_sparse.Csr.row_ptr = y.Granii_sparse.Csr.row_ptr
      && x.Granii_sparse.Csr.col_idx = y.Granii_sparse.Csr.col_idx
      &&
      match (x.Granii_sparse.Csr.values, y.Granii_sparse.Csr.values) with
      | None, None -> true
      | Some v, Some w -> bits_equal v w
      | _ -> false)
  | _ -> false

(* Gc words allocated by [f ()], split minor / major (major includes
   promotions, so "fresh words seen by the collector" on both heaps). *)
let alloc_words f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.major_words -. g0.Gc.major_words )

let candidate_for comp ~k_in ~k_out =
  let scen = Selector.scenario_of ~k_in ~k_out in
  List.find
    (fun (c : Codegen.ccand) -> List.mem scen c.Codegen.scenarios)
    comp.Codegen.candidates

let run_model (model : Granii_mp.Mp_ast.model) ~k_in ~k_out ~iters graph =
  let low, comp, _ = compiled model ~binned:false in
  let n = G.Graph.n_nodes graph in
  let env = env_of graph ~k_in ~k_out in
  let cand = candidate_for comp ~k_in ~k_out in
  let params = Gnn.Layer.init_params ~seed:9 ~env low in
  let h = Dense.random ~seed:10 n k_in in
  let bindings = Gnn.Layer.bindings ~graph ~h params in
  let plan = cand.Codegen.plan in
  (* the "alloc" side reuses nothing: each run draws every buffer from the
     empty arena of a fresh engine *)
  let run () =
    Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph
      ~bindings plan
  in
  (* warm up (fills caches, first-touch pages) before any Gc accounting *)
  let baseline = run () in
  let _, alloc_minor, alloc_major =
    alloc_words (fun () ->
        for _ = 1 to iters do
          ignore (run ())
        done)
  in
  let ws_engine = Engine.create_exn ~obs:!Bench_common.obs Engine.default_config in
  let run_ws () =
    Executor.exec_iterations ~engine:ws_engine ~timing:Executor.Measure ~graph
      ~bindings ~iterations:iters plan
  in
  ignore (run_ws ());
  let reused, ws_minor, ws_major = alloc_words run_ws in
  let identical = value_equal baseline.Executor.output reused.Executor.output in
  let per x = x /. float_of_int iters in
  let cut =
    if alloc_minor <= 0. then 0.
    else 100. *. (1. -. (ws_minor /. alloc_minor))
  in
  Printf.printf "%-8s %-22s %12.0f %12.0f %7.1f%% %12.0f %12.0f %6s\n"
    model.Granii_mp.Mp_ast.name plan.Plan.name (per alloc_minor) (per ws_minor)
    cut (per alloc_major) (per ws_major)
    (if identical then "yes" else "NO");
  json_add ~bench:"mem"
    [ ("kind", S "workspace");
      ("model", S model.Granii_mp.Mp_ast.name);
      ("plan", S plan.Plan.name);
      ("iterations", I iters);
      ("minor_words_per_iter_alloc", F (per alloc_minor));
      ("minor_words_per_iter_ws", F (per ws_minor));
      ("minor_cut_pct", F cut);
      ("major_words_per_iter_alloc", F (per alloc_major));
      ("major_words_per_iter_ws", F (per ws_major));
      ("bitwise_identical", B identical) ]

let run_gemm () =
  let s = if !smoke then 128 else 512 in
  let a = Dense.random ~seed:1 s s and b = Dense.random ~seed:2 s s in
  let n = if !smoke then 2 else 3 in
  let t_u =
    Granii_hw.Timer.measure_n_wall ~warmup:1 ~n (fun () ->
        ignore (Dense.matmul_unblocked a b))
  in
  let t_t =
    Granii_hw.Timer.measure_n_wall ~warmup:1 ~n (fun () -> ignore (Dense.matmul a b))
  in
  Printf.printf "gemm %dx%dx%d (1 thread): untiled %.2f ms, tiled %.2f ms -> %.2fx\n"
    s s s (ms t_u) (ms t_t) (t_u /. t_t);
  json_add ~bench:"mem"
    [ ("kind", S "gemm_tiling");
      ("size", I s);
      ("untiled_ms", F (ms t_u));
      ("tiled_ms", F (ms t_t));
      ("speedup", F (t_u /. t_t)) ]

let run () =
  section "Memory: workspace reuse, tiled GEMM (host CPU)";
  let graph =
    if !smoke then G.Generators.erdos_renyi ~seed:7 ~n:512 ~avg_degree:8. ()
    else G.Generators.rmat ~seed:7 ~scale:11 ~edge_factor:8 ()
  in
  let iters = if !smoke then 3 else 20 in
  Printf.printf "graph: %s (n=%d nnz=%d), %d iterations/case\n"
    graph.G.Graph.name (G.Graph.n_nodes graph)
    (Granii_sparse.Csr.nnz (G.Graph.with_self_loops graph))
    iters;
  Printf.printf "%-8s %-22s %12s %12s %8s %12s %12s %6s\n" "model" "plan"
    "minor/it" "minor/it ws" "cut" "major/it" "major/it ws" "same";
  hr ();
  run_model Granii_mp.Mp_models.gcn ~k_in:32 ~k_out:32 ~iters graph;
  run_model Granii_mp.Mp_models.gat ~k_in:16 ~k_out:64 ~iters graph;
  hr ();
  run_gemm ()
