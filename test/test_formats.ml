(* The BSR / CBM layout formats: exact round-trips, bitwise kernel
   equality against the CSR oracles (sequential and pooled), degenerate
   matrices, counting-scatter coverage, the new featurizer statistics, and
   the joint selector picking each format on the graph family it targets —
   and never under the FLOPs-only ablation. *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace
module Csr = Granii_sparse.Csr
module Coo = Granii_sparse.Coo
module Bsr = Granii_sparse.Bsr
module Cbm = Granii_sparse.Cbm
module Spmm = Granii_sparse.Spmm
module Sddmm = Granii_sparse.Sddmm
module G = Granii_graph
module Gf = G.Graph_features
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

(* ---- round-trips: CSR <-> BSR <-> CSR and CSR <-> CBM <-> CSR ---- *)

let test_bsr_roundtrip =
  qtest "bsr: of_csr/to_csr round-trip is exact" csr_gen (fun m ->
      csr_bits_equal (Bsr.to_csr (Bsr.of_csr m)) m)

let test_bsr_roundtrip_weighted =
  qtest "bsr: weighted round-trip is exact" square_weighted_gen (fun m ->
      csr_bits_equal (Bsr.to_csr (Bsr.of_csr m)) m)

let test_bsr_shapes =
  qtest "bsr: round-trip and accounting hold at every block shape"
    QCheck2.Gen.(triple (int_range 1 5) (int_range 1 5) csr_gen)
    (fun (r, c, m) ->
      let b = Bsr.of_csr ~r ~c m in
      csr_bits_equal (Bsr.to_csr b) m
      && Bsr.nnz b = Csr.nnz m
      && Bsr.fill b > 0. && Bsr.fill b <= 1.)

let test_cbm_roundtrip =
  qtest "cbm: of_csr/to_csr round-trip is exact" csr_gen (fun m ->
      csr_bits_equal (Cbm.to_csr (Cbm.of_csr m)) m)

let test_cbm_roundtrip_weighted =
  qtest "cbm: weighted round-trip and dedup accounting" square_weighted_gen
    (fun m ->
      let d = Cbm.of_csr m in
      csr_bits_equal (Cbm.to_csr d) m
      && Cbm.nnz d = Csr.nnz m
      && Cbm.saved_nnz d >= 0
      && Cbm.dedup_ratio d >= 0. && Cbm.dedup_ratio d <= 1.)

(* ---- kernels: bitwise against the CSR oracles ---- *)

let test_bsr_spmm =
  qtest "bsr: spmm bitwise equals csr spmm"
    QCheck2.Gen.(pair csr_gen (int_range 1 9))
    (fun (m, k) ->
      let b = Dense.random ~seed:3 m.Csr.n_cols k in
      dense_bits_equal (Bsr.spmm (Bsr.of_csr m) b) (Spmm.run m b))

let test_bsr_spmm_weighted =
  qtest "bsr: weighted spmm bitwise equals csr spmm"
    QCheck2.Gen.(pair square_weighted_gen (int_range 1 9))
    (fun (m, k) ->
      let b = Dense.random ~seed:4 m.Csr.n_cols k in
      dense_bits_equal (Bsr.spmm (Bsr.of_csr m) b) (Spmm.run m b))

let test_bsr_spmm_shapes =
  qtest "bsr: spmm bitwise at every block shape"
    QCheck2.Gen.(quad (int_range 1 5) (int_range 1 5) csr_gen (int_range 1 9))
    (fun (r, c, m, k) ->
      let b = Dense.random ~seed:5 m.Csr.n_cols k in
      dense_bits_equal (Bsr.spmm (Bsr.of_csr ~r ~c m) b) (Spmm.run m b))

let test_bsr_sddmm =
  qtest "bsr: sddmm bitwise equals csr sddmm"
    QCheck2.Gen.(pair square_weighted_gen (int_range 1 9))
    (fun (m, k) ->
      let a = Dense.random ~seed:6 m.Csr.n_rows k in
      let b = Dense.random ~seed:7 k m.Csr.n_cols in
      csr_bits_equal (Bsr.sddmm (Bsr.of_csr m) a b) (Sddmm.run m a b))

let test_bsr_rank1 =
  qtest "bsr: rank1 sddmm bitwise equals csr rank1" square_weighted_gen
    (fun m ->
      let rng = Granii_tensor.Prng.create 9 in
      let dl =
        Array.init m.Csr.n_rows (fun _ -> Granii_tensor.Prng.uniform rng 0.1 2.)
      in
      let dr =
        Array.init m.Csr.n_cols (fun _ -> Granii_tensor.Prng.uniform rng 0.1 2.)
      in
      csr_bits_equal (Bsr.rank1 (Bsr.of_csr m) dl dr) (Sddmm.rank1 m dl dr))

let test_cbm_spmm =
  qtest "cbm: spmm bitwise equals csr spmm"
    QCheck2.Gen.(pair csr_gen (int_range 1 9))
    (fun (m, k) ->
      let b = Dense.random ~seed:13 m.Csr.n_cols k in
      dense_bits_equal (Cbm.spmm (Cbm.of_csr m) b) (Spmm.run m b))

let test_cbm_spmm_weighted =
  qtest "cbm: weighted spmm bitwise equals csr spmm"
    QCheck2.Gen.(pair square_weighted_gen (int_range 1 9))
    (fun (m, k) ->
      let b = Dense.random ~seed:14 m.Csr.n_cols k in
      dense_bits_equal (Cbm.spmm (Cbm.of_csr m) b) (Spmm.run m b))

let test_cbm_sddmm =
  qtest "cbm: sddmm bitwise equals csr sddmm"
    QCheck2.Gen.(pair square_weighted_gen (int_range 1 9))
    (fun (m, k) ->
      let a = Dense.random ~seed:15 m.Csr.n_rows k in
      let b = Dense.random ~seed:16 k m.Csr.n_cols in
      csr_bits_equal (Cbm.sddmm (Cbm.of_csr m) a b) (Sddmm.run m a b))

let test_pooled_kernels () =
  (* a dedicated pool and arena: the parallel chunked paths must stay
     bitwise because every row's accumulation order is unchanged *)
  let g = G.Generators.community_overlap ~seed:2 ~n:96 ~groups:8 ~degree:10 () in
  let m = g.G.Graph.adj in
  let k = 16 in
  let b = Dense.random ~seed:21 m.Csr.n_cols k in
  let oracle = Spmm.run m b in
  let pool = Parallel.create ~threads:4 () in
  let ws = Workspace.create () in
  check_true "bsr pooled spmm bitwise"
    (dense_bits_equal (Bsr.spmm ~pool ~ws (Bsr.of_csr m) b) oracle);
  check_true "cbm pooled spmm bitwise"
    (dense_bits_equal (Cbm.spmm ~pool ~ws (Cbm.of_csr m) b) oracle);
  Parallel.shutdown pool

(* ---- degenerate matrices ---- *)

let degenerates =
  let mk n_rows n_cols entries =
    Csr.of_coo (Coo.make ~n_rows ~n_cols (Array.of_list entries))
  in
  [ ("empty 6x6", mk 6 6 []);
    ("1x1 empty", mk 1 1 []);
    ("1x1 entry", mk 1 1 [ (0, 0, 1.5) ]);
    ( "single dense row",
      mk 7 7 (List.init 7 (fun j -> (2, j, float_of_int (j + 1)))) );
    ("isolated vertices", mk 9 9 [ (3, 2, -1.25); (7, 7, 0.5) ]);
    ( "duplicate-heavy rows",
      (* four identical rows, one superset row, one empty row *)
      mk 6 6
        (List.concat_map
           (fun i -> [ (i, 1, 2.0); (i, 4, -3.0) ])
           [ 0; 1; 2; 3 ]
        @ [ (4, 1, 2.0); (4, 4, -3.0); (4, 5, 1.0) ]) ) ]

let test_degenerate_matrices () =
  List.iter
    (fun (name, m) ->
      let k = 3 in
      let b = Dense.random ~seed:31 m.Csr.n_cols k in
      let bsr = Bsr.of_csr m and cbm = Cbm.of_csr m in
      check_true (name ^ ": bsr round-trip") (csr_bits_equal (Bsr.to_csr bsr) m);
      check_true (name ^ ": cbm round-trip") (csr_bits_equal (Cbm.to_csr cbm) m);
      let oracle = Spmm.run m b in
      check_true (name ^ ": bsr spmm") (dense_bits_equal (Bsr.spmm bsr b) oracle);
      check_true (name ^ ": cbm spmm") (dense_bits_equal (Cbm.spmm cbm b) oracle);
      let a = Dense.random ~seed:32 m.Csr.n_rows k in
      let c = Dense.random ~seed:33 k m.Csr.n_cols in
      check_true (name ^ ": bsr sddmm")
        (csr_bits_equal (Bsr.sddmm bsr a c) (Sddmm.run m a c));
      check_true (name ^ ": cbm sddmm")
        (csr_bits_equal (Cbm.sddmm cbm a c) (Sddmm.run m a c)))
    degenerates

let test_cbm_dedup_on_duplicates () =
  let m = List.assoc "duplicate-heavy rows" degenerates in
  let d = Cbm.of_csr m in
  (* rows 1..3 and 4 can all share row 0's entry list as a prefix *)
  check_true "duplicate rows dedup" (Cbm.saved_nnz d >= 6);
  check_true "dedup ratio reflects the sharing" (Cbm.dedup_ratio d > 0.4)

(* ---- counting scatter ---- *)

let test_counting_scatter_csc =
  (* bucket by column = the CSC construction: per-bucket entries must keep
     row-major source order (stability), with exact prefix accounting *)
  qtest "counting_scatter: column buckets are stable and exact" csr_gen
    (fun m ->
      let nnz = Csr.nnz m in
      let ptr, order, src_row =
        Csr.counting_scatter ~n_buckets:m.Csr.n_cols
          ~bucket:(fun _ p -> m.Csr.col_idx.(p))
          m
      in
      Array.length ptr = m.Csr.n_cols + 1
      && ptr.(m.Csr.n_cols) = nnz
      && Array.length order = nnz
      && Array.length src_row = nnz
      && (let ok = ref true in
          for j = 0 to m.Csr.n_cols - 1 do
            if ptr.(j) > ptr.(j + 1) then ok := false;
            for q = ptr.(j) to ptr.(j + 1) - 1 do
              if m.Csr.col_idx.(order.(q)) <> j then ok := false;
              (* stability: source positions ascend within a bucket *)
              if q > ptr.(j) && order.(q - 1) >= order.(q) then ok := false;
              (* src_row really is the row the entry lives in *)
              let i = src_row.(q) in
              if
                order.(q) < m.Csr.row_ptr.(i)
                || order.(q) >= m.Csr.row_ptr.(i + 1)
              then ok := false
            done
          done;
          !ok))

let test_counting_scatter_degenerate () =
  let empty = Csr.of_coo (Coo.make ~n_rows:4 ~n_cols:4 [||]) in
  let ptr, order, src_row =
    Csr.counting_scatter ~n_buckets:3 ~bucket:(fun _ _ -> 0) empty
  in
  check_true "empty matrix: all prefixes zero"
    (ptr = [| 0; 0; 0; 0 |] && order = [||] && src_row = [||]);
  let m = List.assoc "single dense row" degenerates in
  let ptr1, order1, _ =
    Csr.counting_scatter ~n_buckets:1 ~bucket:(fun _ _ -> 0) m
  in
  check_true "one bucket: identity order"
    (ptr1 = [| 0; Csr.nnz m |]
    && order1 = Array.init (Csr.nnz m) Fun.id);
  check_true "out-of-range bucket rejected"
    (try
       ignore (Csr.counting_scatter ~n_buckets:1 ~bucket:(fun _ _ -> 1) m);
       false
     with Invalid_argument _ -> true)

(* ---- featurizer statistics ---- *)

let test_block_fill_stat () =
  let blocked = G.Generators.blocked ~seed:1 ~n:128 ~blocks_per_row:3 () in
  let sparse = G.Generators.erdos_renyi ~seed:1 ~n:128 ~avg_degree:4. () in
  let sb = Gf.extract blocked and ss = Gf.extract sparse in
  check_true "blocked graph has high block fill" (sb.Gf.block_fill > 0.5);
  check_true "er graph has low block fill" (ss.Gf.block_fill < 0.3);
  check_true "bsr fill statistic agrees with the format"
    (abs_float (Bsr.fill (Bsr.of_csr blocked.G.Graph.adj) -. sb.Gf.block_fill)
    < 1e-9)

let test_neighbor_overlap_stat () =
  let over = G.Generators.community_overlap ~seed:3 ~n:256 ~groups:8 ~degree:8 () in
  let sparse = G.Generators.erdos_renyi ~seed:3 ~n:256 ~avg_degree:6. () in
  let so = Gf.extract over and ss = Gf.extract sparse in
  check_true "community graph has high neighbor overlap"
    (so.Gf.neighbor_overlap > 0.3);
  check_true "er graph has low neighbor overlap"
    (ss.Gf.neighbor_overlap < so.Gf.neighbor_overlap);
  check_true "cbm dedups the community graph"
    (Cbm.dedup_ratio (Cbm.of_csr over.G.Graph.adj) > 0.3)

(* ---- executor: the legal engine grid under the new formats ---- *)

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

let format_localities =
  List.filter
    (fun c ->
      c.Locality.format = Locality.Bsr || c.Locality.format = Locality.Cbm)
    Locality.all_configs

let test_engine_grid_bitwise () =
  (* every legal engine configuration over the new formats — threads 1/2/4,
     workspace on/off, liveness on/off — executes gcn and gat bitwise
     identically to the plain path (cache + locality stays illegal and is
     checked below) *)
  check_true "both formats appear on the layout axis"
    (List.exists (fun c -> c.Locality.format = Locality.Bsr) format_localities
    && List.exists (fun c -> c.Locality.format = Locality.Cbm) format_localities);
  let graph = G.Generators.community_overlap ~seed:7 ~n:48 ~groups:6 ~degree:7 () in
  let grid =
    List.concat_map
      (fun locality ->
        List.concat_map
          (fun threads ->
            List.concat_map
              (fun workspace ->
                List.filter_map
                  (fun keep_intermediates ->
                    let cfg =
                      { Engine.default_config with
                        threads;
                        workspace;
                        keep_intermediates;
                        locality }
                    in
                    match Engine.create cfg with
                    | Ok e ->
                        Engine.shutdown e;
                        Some cfg
                    | Error _ -> None)
                  [ true; false ])
              [ false; true ])
          [ 1; 2; 4 ])
      format_localities
  in
  check_true "the format grid is non-trivial" (List.length grid > 20);
  List.iter
    (fun name ->
      let model = Mp.Mp_models.find name in
      let low, compiled = compile_model model in
      let _, bindings = setup_bindings ~k_in:9 ~k_out:7 low graph in
      List.iter
        (fun (c : Codegen.ccand) ->
          let reference =
            Executor.exec ~engine:(Engine.default ())
              ~timing:Executor.Measure ~graph ~bindings c.Codegen.plan
          in
          List.iter
            (fun cfg ->
              let engine = Engine.create_exn cfg in
              let r =
                Executor.exec ~engine ~timing:Executor.Measure ~graph
                  ~bindings c.Codegen.plan
              in
              check_true
                (Printf.sprintf "%s/%s under %s bitwise" name
                   c.Codegen.plan.Plan.name
                   (Engine.describe_config cfg))
                (value_bits_equal reference.Executor.output r.Executor.output);
              Engine.shutdown engine)
            grid)
        compiled.Codegen.candidates)
    [ "gcn"; "gat" ]

let test_bsr_reorder_rejected () =
  (* bsr tiles accumulate in column-sorted order; a reordered matrix keeps
     source entry order, so the pair is illegal — never enumerated by the
     selector and a typed error at engine construction *)
  List.iter
    (fun strategy ->
      let locality = { Locality.strategy; format = Locality.Bsr } in
      check_true
        (Locality.config_to_string locality ^ " is not enumerated")
        (not (List.mem locality Locality.all_configs));
      match Engine.create { Engine.default_config with locality } with
      | Error (Engine.Bsr_with_reorder c) ->
          check_true "error carries the layout" (c = locality)
      | Ok _ | Error _ ->
          Alcotest.fail
            (Locality.config_to_string locality ^ " must be rejected"))
    [ G.Reorder.Degree_sort; G.Reorder.Bfs; G.Reorder.Rcm ];
  check_true "identity+bsr stays legal"
    (Locality.legal { Locality.strategy = G.Reorder.Identity; format = Locality.Bsr })

(* ---- joint selection ---- *)

let test_selector_picks_bsr () =
  (* a block-structured graph under a dense-leaning profile: the tiles run
     near dense-GEMM throughput and the model must route SpMM to BSR *)
  let graph = G.Generators.blocked ~seed:5 ~n:4096 ~blocks_per_row:6 () in
  let _, compiled = compile_model (Mp.Mp_models.find "gcn") in
  let cm = Cost_oracle.analytic Granii_hw.Hw_profile.a100 in
  let ld =
    Granii.optimize_localized ~oracle:cm ~graph ~k_in:256 ~k_out:256
      ~iterations:100 compiled
  in
  check_true "bsr format selected"
    (ld.Granii.config.Locality.format = Locality.Bsr);
  check_true "layout strictly cheaper than legacy"
    (ld.Granii.ldecision.Granii.choice.Selector.predicted_cost
    < ld.Granii.base_cost)

let test_selector_picks_cbm () =
  (* high neighborhood overlap: shared prefixes erase most of the gather
     traffic and the model must route SpMM to CBM *)
  let graph =
    G.Generators.community_overlap ~seed:5 ~n:4096 ~groups:64 ~degree:16 ()
  in
  let _, compiled = compile_model (Mp.Mp_models.find "gcn") in
  let cm = Cost_oracle.analytic Granii_hw.Hw_profile.cpu in
  let ld =
    Granii.optimize_localized ~oracle:cm ~graph ~k_in:256 ~k_out:256
      ~iterations:100 compiled
  in
  check_true "cbm format selected"
    (ld.Granii.config.Locality.format = Locality.Cbm);
  check_true "layout strictly cheaper than legacy"
    (ld.Granii.ldecision.Granii.choice.Selector.predicted_cost
    < ld.Granii.base_cost)

let test_selector_flops_never_picks_formats () =
  (* the profile-less ablation has no hardware terms: the layout adjustment
     vanishes and the default config must win on both graph families *)
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
    [ G.Generators.blocked ~seed:6 ~n:512 ~blocks_per_row:4 ();
      G.Generators.community_overlap ~seed:6 ~n:512 ~groups:16 ~degree:24 () ]

let suite =
  [ test_bsr_roundtrip;
    test_bsr_roundtrip_weighted;
    test_bsr_shapes;
    test_cbm_roundtrip;
    test_cbm_roundtrip_weighted;
    test_bsr_spmm;
    test_bsr_spmm_weighted;
    test_bsr_spmm_shapes;
    test_bsr_sddmm;
    test_bsr_rank1;
    test_cbm_spmm;
    test_cbm_spmm_weighted;
    test_cbm_sddmm;
    Alcotest.test_case "pooled kernels bitwise" `Quick test_pooled_kernels;
    Alcotest.test_case "degenerate matrices" `Quick test_degenerate_matrices;
    Alcotest.test_case "cbm dedups duplicate rows" `Quick
      test_cbm_dedup_on_duplicates;
    test_counting_scatter_csc;
    Alcotest.test_case "counting scatter degenerate" `Quick
      test_counting_scatter_degenerate;
    Alcotest.test_case "block fill statistic" `Quick test_block_fill_stat;
    Alcotest.test_case "neighbor overlap statistic" `Quick
      test_neighbor_overlap_stat;
    Alcotest.test_case "engine grid bitwise" `Quick test_engine_grid_bitwise;
    Alcotest.test_case "bsr + reorder rejected" `Quick
      test_bsr_reorder_rejected;
    Alcotest.test_case "selector picks bsr" `Quick test_selector_picks_bsr;
    Alcotest.test_case "selector picks cbm" `Quick test_selector_picks_cbm;
    Alcotest.test_case "selector flops never picks formats" `Quick
      test_selector_flops_never_picks_formats ]
