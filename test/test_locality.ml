(* The locality engine: stable reordering, the hybrid (ELL + CSR tail)
   format (random, degenerate and pooled inputs), the CSC counting-sort
   construction, joint layout selection, and the executor's bitwise
   round-trip guarantee under a non-default layout. *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module Csr = Granii_sparse.Csr
module Csc = Granii_sparse.Csc
module Coo = Granii_sparse.Coo
module Hybrid = Granii_sparse.Hybrid
module Spmm = Granii_sparse.Spmm
module Sddmm = Granii_sparse.Sddmm
module G = Granii_graph
module Reorder = G.Reorder
module Mp = Granii_mp
module Gnn = Granii_gnn

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

(* Structure and values must match exactly — same entry order, same bits. *)
let csr_bits_equal (a : Csr.t) (b : Csr.t) =
  a.Csr.n_rows = b.Csr.n_rows && a.Csr.n_cols = b.Csr.n_cols
  && a.Csr.row_ptr = b.Csr.row_ptr && a.Csr.col_idx = b.Csr.col_idx
  &&
  match (a.Csr.values, b.Csr.values) with
  | None, None -> true
  | Some v, Some w -> bits_equal v w
  | _ -> false

let dense_bits_equal (a : Dense.t) (b : Dense.t) =
  a.Dense.rows = b.Dense.rows && a.Dense.cols = b.Dense.cols
  && bits_equal a.Dense.data b.Dense.data

let value_bits_equal (a : Executor.value) (b : Executor.value) =
  match (a, b) with
  | Executor.Vdense x, Executor.Vdense y -> dense_bits_equal x y
  | Executor.Vdiag x, Executor.Vdiag y -> bits_equal x y
  | Executor.Vsparse x, Executor.Vsparse y -> csr_bits_equal x y
  | _ -> false

(* Random square weighted matrix: a random graph's adjacency with random
   values attached (graphs themselves are structural). *)
let square_weighted_gen =
  let open QCheck2.Gen in
  let* g = graph_gen in
  let* seed = int_range 0 10_000 in
  let adj = g.G.Graph.adj in
  let rng = Granii_tensor.Prng.create seed in
  let values =
    Array.init (Csr.nnz adj) (fun _ -> Granii_tensor.Prng.uniform rng (-2.) 2.)
  in
  return (Csr.with_values adj values)

let strategy_gen =
  QCheck2.Gen.oneofl
    [ Reorder.Identity; Reorder.Degree_sort; Reorder.Bfs; Reorder.Rcm ]

(* ---- reordering ---- *)

let test_perm_bijection =
  qtest "reorder: perm and inv are inverse bijections"
    QCheck2.Gen.(pair strategy_gen graph_gen)
    (fun (strategy, g) ->
      let r = Reorder.compute strategy g.G.Graph.adj in
      let n = Array.length r.Reorder.perm in
      n = G.Graph.n_nodes g
      && Array.for_all
           (fun i -> r.Reorder.inv.(r.Reorder.perm.(i)) = i)
           (Array.init n Fun.id))

let test_permute_roundtrip =
  qtest "reorder: inverse permutation restores the matrix bitwise"
    QCheck2.Gen.(pair strategy_gen square_weighted_gen)
    (fun (strategy, m) ->
      let r = Reorder.compute strategy m in
      let inv = Reorder.of_perm ~strategy r.Reorder.inv in
      csr_bits_equal (Reorder.permute_csr inv (Reorder.permute_csr r m)) m)

let test_permute_semantics () =
  (* P A P^T really relabels: entry (i, j) moves to (perm i, perm j). *)
  let g = G.Generators.erdos_renyi ~seed:5 ~n:30 ~avg_degree:4. () in
  let m = g.G.Graph.adj in
  let r = Reorder.compute Reorder.Degree_sort m in
  let pm = Reorder.permute_csr r m in
  let d = Csr.to_dense m and pd = Csr.to_dense pm in
  for i = 0 to 29 do
    for j = 0 to 29 do
      check_float
        (Printf.sprintf "entry (%d,%d)" i j)
        (Dense.get d i j)
        (Dense.get pd r.Reorder.perm.(i) r.Reorder.perm.(j))
    done
  done

let test_dense_vector_roundtrip =
  qtest "reorder: dense-row and vector permutations invert"
    QCheck2.Gen.(pair strategy_gen graph_gen)
    (fun (strategy, g) ->
      let n = G.Graph.n_nodes g in
      let r = Reorder.compute strategy g.G.Graph.adj in
      let d = Dense.random ~seed:7 n 5 in
      let v = Array.init n (fun i -> float_of_int i) in
      dense_bits_equal (Reorder.inverse_dense_rows r (Reorder.permute_dense_rows r d)) d
      && Reorder.inverse_vector r (Reorder.permute_vector r v) = v)

let test_rcm_bandwidth () =
  (* The classic RCM result: on a mesh whose natural order is shuffled, the
     reordering restores a small bandwidth. *)
  let g = G.Generators.grid2d ~rows:16 ~cols:16 () in
  let m = g.G.Graph.adj in
  let shuffle =
    let rng = Granii_tensor.Prng.create 42 in
    let a = Array.init 256 Fun.id in
    for i = 255 downto 1 do
      let j = Granii_tensor.Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let shuffled =
    Reorder.permute_csr (Reorder.of_perm ~strategy:Reorder.Identity shuffle) m
  in
  let r = Reorder.compute Reorder.Rcm shuffled in
  let _, before = Reorder.bandwidth shuffled in
  let _, after = Reorder.bandwidth ~order:r shuffled in
  check_true
    (Printf.sprintf "rcm shrinks max bandwidth (%d -> %d)" before after)
    (after < before / 2)

let test_strategy_strings () =
  List.iter
    (fun s ->
      check_true
        (Reorder.strategy_to_string s)
        (Reorder.strategy_of_string (Reorder.strategy_to_string s) = Some s))
    Reorder.all_strategies;
  check_true "none aliases identity"
    (Reorder.strategy_of_string "none" = Some Reorder.Identity);
  check_true "unknown rejected" (Reorder.strategy_of_string "sorted" = None)

(* The hybrid property tests draw the degenerate matrices first (empty,
   1x1, one dense row, isolated vertices, duplicate-heavy rows), then
   random ones. [graft_corners] is stateful: one fresh generator per test. *)
let with_degenerates gen =
  QCheck2.Gen.graft_corners gen (List.map snd degenerates) ()

(* ---- conversions: CSC and hybrid round-trips ---- *)

let test_csc_roundtrip =
  qtest "csc: of_csr/to_csr round-trip is exact" csr_gen (fun m ->
      csr_bits_equal (Csc.to_csr (Csc.of_csr m)) m)

let test_csc_columns_sorted =
  (* The counting-scatter construction must emit sorted row ids per column
     even when fed unsorted (permuted) rows. *)
  qtest "csc: per-column row ids ascend even from permuted input"
    QCheck2.Gen.(pair strategy_gen square_weighted_gen)
    (fun (strategy, m) ->
      let r = Reorder.compute strategy m in
      let c = Csc.of_csr (Reorder.permute_csr r m) in
      let ok = ref true in
      for j = 0 to c.Csc.n_cols - 1 do
        for p = c.Csc.col_ptr.(j) to c.Csc.col_ptr.(j + 1) - 2 do
          if c.Csc.row_idx.(p) >= c.Csc.row_idx.(p + 1) then ok := false
        done
      done;
      !ok)

let test_hybrid_roundtrip =
  qtest "hybrid: of_csr/to_csr round-trip is exact" (with_degenerates csr_gen)
    (fun m -> csr_bits_equal (Hybrid.to_csr (Hybrid.of_csr m)) m)

let test_hybrid_widths =
  qtest "hybrid: round-trip and accounting hold at every width"
    QCheck2.Gen.(pair (int_range 1 8) (with_degenerates csr_gen))
    (fun (width, m) ->
      let h = Hybrid.of_csr ~width m in
      csr_bits_equal (Hybrid.to_csr h) m
      && Hybrid.ell_nnz h + Hybrid.tail_nnz h = Csr.nnz m
      && Hybrid.packing h >= 0. && Hybrid.packing h <= 1.)

(* ---- hybrid kernels: bitwise against the CSR kernels ---- *)

let test_hybrid_spmm =
  qtest "hybrid: spmm bitwise equals csr spmm"
    QCheck2.Gen.(pair (with_degenerates csr_gen) (int_range 1 9))
    (fun (m, k) ->
      let b = Dense.random ~seed:3 m.Csr.n_cols k in
      dense_bits_equal (Hybrid.spmm (Hybrid.of_csr m) b) (Spmm.run m b))

let test_hybrid_spmm_weighted =
  qtest "hybrid: weighted spmm bitwise equals csr spmm"
    QCheck2.Gen.(pair (with_degenerates square_weighted_gen) (int_range 1 9))
    (fun (m, k) ->
      let b = Dense.random ~seed:4 m.Csr.n_cols k in
      dense_bits_equal (Hybrid.spmm (Hybrid.of_csr m) b) (Spmm.run m b))

let test_hybrid_sddmm =
  qtest "hybrid: sddmm bitwise equals csr sddmm"
    QCheck2.Gen.(pair (with_degenerates square_weighted_gen) (int_range 1 9))
    (fun (m, k) ->
      let a = Dense.random ~seed:5 m.Csr.n_rows k in
      let b = Dense.random ~seed:6 k m.Csr.n_cols in
      csr_bits_equal (Hybrid.sddmm (Hybrid.of_csr m) a b) (Sddmm.run m a b))

let test_hybrid_rank1 =
  qtest "hybrid: rank1 sddmm bitwise equals csr rank1"
    (with_degenerates square_weighted_gen)
    (fun m ->
      let rng = Granii_tensor.Prng.create 9 in
      let dl =
        Array.init m.Csr.n_rows (fun _ -> Granii_tensor.Prng.uniform rng 0.1 2.)
      in
      let dr =
        Array.init m.Csr.n_cols (fun _ -> Granii_tensor.Prng.uniform rng 0.1 2.)
      in
      csr_bits_equal (Hybrid.rank1 (Hybrid.of_csr m) dl dr) (Sddmm.rank1 m dl dr))

let test_hybrid_pooled () =
  (* a dedicated pool and arena: the chunked paths must stay bitwise
     because every row's accumulation order is unchanged *)
  let g = G.Generators.community_overlap ~seed:2 ~n:96 ~groups:8 ~degree:10 () in
  let m = g.G.Graph.adj in
  let h = Hybrid.of_csr m in
  let b = Dense.random ~seed:21 m.Csr.n_cols 16 in
  let dl = Array.init m.Csr.n_rows (fun i -> 1. /. float_of_int (i + 1)) in
  let dr = Array.init m.Csr.n_cols (fun j -> 2. /. float_of_int (j + 3)) in
  let pool = Granii_tensor.Parallel.create ~threads:4 () in
  let ws = Granii_tensor.Workspace.create () in
  check_true "pooled hybrid spmm bitwise"
    (dense_bits_equal (Hybrid.spmm ~pool ~ws h b) (Spmm.run m b));
  check_true "pooled hybrid rank1 bitwise"
    (csr_bits_equal (Hybrid.rank1 ~pool ~ws h dl dr) (Sddmm.rank1 m dl dr));
  Granii_tensor.Parallel.shutdown pool

(* ---- executor: localized run equals the legacy run bitwise ---- *)

let compile_model (m : Mp.Mp_ast.model) =
  let low = Mp.Lower.lower m in
  let compiled, _ =
    Granii.compile ~name:m.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      low.Mp.Lower.ir
  in
  (low, compiled)

let setup_bindings ?(seed = 11) ~k_in ~k_out low graph =
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out } in
  let params = Gnn.Layer.init_params ~seed ~env low in
  let h = Dense.random ~seed:(seed + 1) n k_in in
  (env, Gnn.Layer.bindings ~graph ~h params)

let all_localities =
  List.filter (fun c -> not (Locality.is_default c)) Locality.all_configs

let check_model_roundtrip name graph =
  let model = Mp.Mp_models.find name in
  let low, compiled = compile_model model in
  let _, bindings = setup_bindings ~k_in:9 ~k_out:7 low graph in
  List.iter
    (fun (c : Codegen.ccand) ->
      let reference =
        Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure
          ~graph ~bindings c.Codegen.plan
      in
      List.iter
        (fun locality ->
          let localized =
            Executor.exec
              ~engine:(Engine.create_exn { Engine.default_config with locality })
              ~timing:Executor.Measure ~graph ~bindings c.Codegen.plan
          in
          check_true
            (Printf.sprintf "%s/%s under %s bitwise" name c.Codegen.plan.Plan.name
               (Locality.config_to_string locality))
            (value_bits_equal reference.Executor.output localized.Executor.output))
        all_localities)
    compiled.Codegen.candidates

let test_executor_roundtrip_gcn () =
  check_model_roundtrip "gcn" (G.Generators.barabasi_albert ~seed:2 ~n:70 ~m:4 ())

let test_executor_roundtrip_gat () =
  check_model_roundtrip "gat" (G.Generators.erdos_renyi ~seed:8 ~n:50 ~avg_degree:5. ())

let test_run_iterations_localized () =
  let model = Mp.Mp_models.find "gcn" in
  let low, compiled = compile_model model in
  let graph = G.Generators.barabasi_albert ~seed:4 ~n:60 ~m:3 () in
  let _, bindings = setup_bindings ~k_in:9 ~k_out:7 low graph in
  let plan = (List.hd compiled.Codegen.candidates).Codegen.plan in
  let run locality =
    Executor.exec_iterations
      ~engine:(Engine.create_exn { Engine.default_config with locality })
      ~timing:Executor.Measure ~graph ~bindings ~iterations:3 plan
  in
  let reference = run Locality.default in
  check_float "no layout work by default" 0. reference.Executor.layout_time;
  List.iter
    (fun locality ->
      let r = run locality in
      check_true
        (Printf.sprintf "iterated output under %s bitwise"
           (Locality.config_to_string locality))
        (value_bits_equal reference.Executor.output r.Executor.output);
      check_true "layout work is accounted" (r.Executor.layout_time > 0.))
    all_localities

(* ---- featurizer layout statistics ---- *)

let test_layout_features () =
  let g = G.Generators.barabasi_albert ~seed:1 ~n:200 ~m:5 () in
  let f = Featurizer.extract g in
  let s = f.Featurizer.stats in
  check_true "packing in (0, 1]"
    (s.G.Graph_features.ell_packing > 0. && s.G.Graph_features.ell_packing <= 1.);
  check_true "bandwidth normalized"
    (s.G.Graph_features.avg_bandwidth >= 0.
    && s.G.Graph_features.avg_bandwidth <= s.G.Graph_features.max_bandwidth
    && s.G.Graph_features.max_bandwidth <= 1.);
  check_true "degree variance positive on a power-law graph"
    (s.G.Graph_features.degree_variance > 0.);
  check_int "feature vector matches names"
    (Array.length G.Graph_features.names)
    (Array.length (G.Graph_features.to_array s))

(* ---- joint selection ---- *)

let skewed_graph = lazy (G.Generators.rmat ~scale:14 ~edge_factor:16 ())

let test_selector_picks_hybrid () =
  (* A large skewed-degree graph with a big dense operand: the gathers miss
     cache and the analytic model credits the hybrid layout. *)
  let graph = Lazy.force skewed_graph in
  let _, compiled = compile_model (Mp.Mp_models.find "gcn") in
  let cm = Cost_oracle.analytic Granii_hw.Hw_profile.cpu in
  let ld =
    Granii.optimize_localized ~oracle:cm ~graph ~k_in:1024 ~k_out:1024
      ~iterations:100 compiled
  in
  check_true "hybrid format selected" (ld.Granii.config.Locality.format = Locality.Hybrid);
  check_true "layout strictly cheaper than legacy"
    (ld.Granii.ldecision.Granii.choice.Selector.predicted_cost < ld.Granii.base_cost)

let test_selector_forced_csr () =
  (* --engine locality=identity+csr: pinning the default layout must keep
     the legacy path and reproduce plain Selector.select exactly. *)
  let graph = Lazy.force skewed_graph in
  let _, compiled = compile_model (Mp.Mp_models.find "gcn") in
  let cm = Cost_oracle.analytic Granii_hw.Hw_profile.cpu in
  let feats = Featurizer.extract graph in
  let env =
    { Dim.n = G.Graph.n_nodes graph;
      nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
      k_in = 1024;
      k_out = 1024 }
  in
  let lc =
    Selector.select_localized ~oracle:cm ~feats ~env ~iterations:100
      ~configs:[ Locality.default ] compiled
  in
  let plain = Selector.select ~oracle:cm ~feats ~env ~iterations:100 compiled in
  check_true "legacy config" (Locality.is_default lc.Selector.config);
  check_true "same candidate"
    (lc.Selector.lchoice.Selector.candidate.Codegen.plan.Plan.name
    = plain.Selector.candidate.Codegen.plan.Plan.name);
  check_float "same predicted cost" plain.Selector.predicted_cost
    lc.Selector.lchoice.Selector.predicted_cost

let test_selector_flops_degenerates () =
  (* The profile-less model has no hardware terms: every layout adjustment
     is zero and the default config must win all ties. *)
  let graph = G.Generators.barabasi_albert ~seed:6 ~n:80 ~m:4 () in
  let _, compiled = compile_model (Mp.Mp_models.find "gcn") in
  let feats = Featurizer.extract graph in
  let env =
    { Dim.n = G.Graph.n_nodes graph;
      nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
      k_in = 16;
      k_out = 16 }
  in
  let lc =
    Selector.select_localized ~oracle:(Cost_oracle.flops_only ()) ~feats ~env
      ~iterations:100 compiled
  in
  check_true "flops model keeps the legacy layout"
    (Locality.is_default lc.Selector.config)

let test_selector_flops_never_picks_formats () =
  (* the same ablation at selection scale, on the two graph families the
     layout model credits most (overlapping communities, a mesh): the
     default config must still win *)
  List.iter
    (fun graph ->
      let _, compiled = compile_model (Mp.Mp_models.find "gcn") in
      let feats = Featurizer.extract graph in
      let env =
        { Dim.n = G.Graph.n_nodes graph;
          nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
          k_in = 256;
          k_out = 256 }
      in
      let lc =
        Selector.select_localized ~oracle:(Cost_oracle.flops_only ()) ~feats
          ~env ~iterations:100 compiled
      in
      check_true "flops model keeps the legacy layout"
        (Locality.is_default lc.Selector.config))
    [ G.Generators.community_overlap ~seed:6 ~n:512 ~groups:16 ~degree:24 ();
      G.Generators.grid2d ~seed:6 ~rows:24 ~cols:24 () ]

let suite =
  [ test_perm_bijection;
    test_permute_roundtrip;
    Alcotest.test_case "permute semantics" `Quick test_permute_semantics;
    test_dense_vector_roundtrip;
    Alcotest.test_case "rcm bandwidth" `Quick test_rcm_bandwidth;
    Alcotest.test_case "strategy strings" `Quick test_strategy_strings;
    test_csc_roundtrip;
    test_csc_columns_sorted;
    test_hybrid_roundtrip;
    test_hybrid_widths;
    test_hybrid_spmm;
    test_hybrid_spmm_weighted;
    test_hybrid_sddmm;
    test_hybrid_rank1;
    Alcotest.test_case "hybrid: pooled kernels bitwise" `Quick test_hybrid_pooled;
    Alcotest.test_case "executor roundtrip gcn" `Quick test_executor_roundtrip_gcn;
    Alcotest.test_case "executor roundtrip gat" `Quick test_executor_roundtrip_gat;
    Alcotest.test_case "run_iterations localized" `Quick test_run_iterations_localized;
    Alcotest.test_case "layout features" `Quick test_layout_features;
    Alcotest.test_case "selector picks hybrid" `Quick test_selector_picks_hybrid;
    Alcotest.test_case "selector forced csr" `Quick test_selector_forced_csr;
    Alcotest.test_case "selector flops degenerates" `Quick test_selector_flops_degenerates;
    Alcotest.test_case "selector flops never picks formats" `Quick
      test_selector_flops_never_picks_formats ]
