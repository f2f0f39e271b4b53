open Granii_graph
open Test_util
module Csr = Granii_sparse.Csr
module Coo = Granii_sparse.Coo
module Prng = Granii_tensor.Prng

let test_of_edges () =
  let g = Graph.of_edges ~name:"tri" ~n:3 [ (0, 1); (1, 2); (2, 0); (1, 1) ] in
  check_int "self loop dropped, undirected doubled" 6 (Graph.n_edges g);
  check_true "symmetric" (Graph.is_symmetric g);
  check_float "avg degree" 2. (Graph.avg_degree g)

let test_self_loops_and_norm () =
  let g = Graph.of_edges ~name:"pair" ~n:2 [ (0, 1) ] in
  let a = Graph.with_self_loops g in
  check_int "n + 2e entries" 4 (Granii_sparse.Csr.nnz a);
  let d = Graph.degrees_tilde g in
  check_float "degree includes self loop" 2. d.(0);
  let norm = Graph.norm_inv_sqrt g in
  check_float "norm is deg^-1/2" (1. /. sqrt 2.) norm.(0)

(* The COO construction of A~ = A + I that the linear build replaced: every
   stored entry plus the diagonal, sorted and deduplicated by [Coo.make].
   Kept as the reference the linear build must match bit for bit. *)
let coo_self_loops (g : Graph.t) =
  let n = Graph.n_nodes g in
  let entries = ref [] in
  Csr.iter (fun i j _ -> entries := (i, j, 1.) :: !entries) g.Graph.adj;
  for i = 0 to n - 1 do
    entries := (i, i, 1.) :: !entries
  done;
  Csr.of_coo ~keep_values:false
    (Coo.make ~n_rows:n ~n_cols:n (Array.of_list !entries))

let bitwise_equal (a : Csr.t) (b : Csr.t) =
  a.Csr.n_rows = b.Csr.n_rows && a.Csr.n_cols = b.Csr.n_cols
  && a.Csr.row_ptr = b.Csr.row_ptr && a.Csr.col_idx = b.Csr.col_idx
  && a.Csr.values = None && b.Csr.values = None

let graph_of_rows ~name rows =
  let n = Array.length rows in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> row_ptr.(i + 1) <- row_ptr.(i) + Array.length r) rows;
  Graph.make ~name
    (Csr.make ~n_rows:n ~n_cols:n ~row_ptr
       ~col_idx:(Array.concat (Array.to_list rows))
       ~values:None)

(* Sorted rows, each column kept with probability [p]: stored diagonals
   and isolated nodes both occur. *)
let sorted_rows rng ~n ~p =
  Array.init n (fun _ ->
      Array.of_list (List.filter (fun _ -> Prng.bool rng p) (List.init n Fun.id)))

(* Adjacencies the linear build must handle: n = 0 and n = 1, stars,
   isolated nodes and stored diagonals in sorted rows, rows left unsorted
   by [Reorder.permute_csr], and arbitrary rows (any order, duplicate
   columns, diagonals, empty rows) through [Csr.make]. *)
let adjacency_gen =
  let open QCheck2.Gen in
  let* n = frequency [ (1, return 0); (1, return 1); (6, int_range 2 16) ] in
  let* shape = int_range 0 3 in
  let* seed = int_range 0 10_000 in
  let rng = Prng.create seed in
  return
    (match shape with
    | 0 when n >= 1 -> Generators.star ~n
    | 1 ->
        graph_of_rows ~name:"arbitrary"
          (Array.init n (fun _ ->
               Array.init (Prng.int rng 5) (fun _ -> Prng.int rng n)))
    | 2 ->
        let g = graph_of_rows ~name:"sorted" (sorted_rows rng ~n ~p:0.2) in
        let perm = Array.init n Fun.id in
        Prng.shuffle_in_place rng perm;
        Graph.make ~name:"permuted"
          (Reorder.permute_csr
             (Reorder.of_perm ~strategy:Reorder.Degree_sort perm)
             g.Graph.adj)
    | _ -> graph_of_rows ~name:"sorted" (sorted_rows rng ~n ~p:0.15))

let test_self_loops_match_coo =
  qtest ~count:500 "with_self_loops is bitwise the COO construction"
    adjacency_gen (fun g -> bitwise_equal (Graph.with_self_loops g) (coo_self_loops g))

let test_self_loops_memoized () =
  let g = Generators.rmat ~seed:3 ~scale:8 ~edge_factor:8 () in
  check_true "second call returns the same CSR"
    (Graph.with_self_loops g == Graph.with_self_loops g);
  check_true "second call returns the same fingerprint"
    (Graph.fingerprint g == Graph.fingerprint g)

(* Four domains force a fresh graph's A~ at once: none raises, and every
   one gets the single memoized matrix. *)
let test_self_loops_concurrent () =
  let fresh () = Generators.rmat ~seed:4 ~scale:10 ~edge_factor:8 () in
  let reference = coo_self_loops (fresh ()) in
  for _ = 1 to 5 do
    let g = fresh () in
    let go = Atomic.make false in
    let domains =
      List.init 4 (fun _ ->
          Domain.spawn (fun () ->
              while not (Atomic.get go) do Domain.cpu_relax () done;
              Graph.with_self_loops g))
    in
    Atomic.set go true;
    let results = List.map Domain.join domains in
    List.iter
      (fun a ->
        check_true "structurally equal to the reference" (bitwise_equal a reference);
        check_true "the memoized matrix" (a == Graph.with_self_loops g))
      results
  done

let test_generator_er () =
  let g = Generators.erdos_renyi ~seed:1 ~n:500 ~avg_degree:8. () in
  check_int "node count" 500 (Graph.n_nodes g);
  check_true "average degree in the right ballpark"
    (Graph.avg_degree g > 4. && Graph.avg_degree g < 12.);
  check_true "symmetric" (Graph.is_symmetric g)

let test_generator_determinism () =
  let a = Generators.rmat ~seed:9 ~scale:8 ~edge_factor:8 () in
  let b = Generators.rmat ~seed:9 ~scale:8 ~edge_factor:8 () in
  check_int "same seed, same graph" (Graph.n_edges a) (Graph.n_edges b);
  check_true "structures equal"
    (Granii_sparse.Csr.equal_structure a.Graph.adj b.Graph.adj)

let test_generator_ba_skew () =
  let g = Generators.barabasi_albert ~seed:2 ~n:400 ~m:3 () in
  check_true "max degree far above average (heavy tail)"
    (float_of_int (Graph.max_degree g) > 4. *. Graph.avg_degree g)

let test_generator_grid () =
  let g = Generators.grid2d ~seed:1 ~diagonal_fraction:0. ~rows:5 ~cols:4 () in
  check_int "5x4 grid nodes" 20 (Graph.n_nodes g);
  (* 4-neighbor lattice: horizontal 5*3, vertical 4*4 undirected -> x2 *)
  check_int "lattice edges" (2 * ((5 * 3) + (4 * 4))) (Graph.n_edges g);
  check_true "bounded degree" (Graph.max_degree g <= 4)

let test_generator_mycielskian () =
  (* M2 = K2, M3 = C5 (5 nodes, 5 edges), M4 = Groetzsch (11 nodes, 20 edges) *)
  let m3 = Generators.mycielskian ~levels:3 () in
  check_int "M3 nodes" 5 (Graph.n_nodes m3);
  check_int "M3 edges" 10 (Graph.n_edges m3);
  let m4 = Generators.mycielskian ~levels:4 () in
  check_int "M4 nodes" 11 (Graph.n_nodes m4);
  check_int "M4 edges" 40 (Graph.n_edges m4);
  let m6 = Generators.mycielskian ~levels:6 () in
  check_true "density grows with level" (Graph.avg_degree m6 > Graph.avg_degree m4)

let test_generator_specials () =
  let s = Generators.star ~n:10 in
  check_int "star max degree" 9 (Graph.max_degree s);
  let r = Generators.ring ~n:10 in
  check_true "ring is 2-regular" (Graph.max_degree r = 2 && Graph.avg_degree r = 2.);
  let k = Generators.complete ~n:6 in
  check_int "complete graph edges" 30 (Graph.n_edges k)

let test_datasets_catalog () =
  check_int "six datasets" 6 (List.length Datasets.all);
  let rd = Datasets.find "rd" in
  check_true "case-insensitive lookup" (String.equal rd.Datasets.key "RD");
  let g = Datasets.load rd in
  check_true "reddit stand-in is dense-ish" (Graph.avg_degree g > 50.);
  let bl = Datasets.load (Datasets.find "BL") in
  check_true "road stand-in is sparse" (Graph.avg_degree bl < 5.);
  let mc = Datasets.load (Datasets.find "MC") in
  check_true "mycielskian stand-in is densest by density"
    (Graph.density mc > Graph.density bl)

let test_training_pool_disjoint () =
  let pool = Datasets.training_pool () in
  check_true "pool is reasonably sized" (List.length pool >= 10);
  let eval_names = List.map (fun d -> (Datasets.load d).Graph.name) Datasets.all in
  List.iter
    (fun g ->
      check_true "pool graph not in eval set"
        (not (List.mem g.Graph.name eval_names)))
    pool

let test_sampling_fanout =
  qtest "sampling caps in-degree at fanout" graph_gen (fun g ->
      let fanout = 2 in
      let s = Sampling.neighborhood ~seed:3 ~fanout g in
      Array.for_all (fun d -> d <= fanout) (Granii_sparse.Csr.row_degrees s.Graph.adj)
      && Graph.n_nodes s = Graph.n_nodes g)

let test_sampling_preserves_small_rows =
  qtest "rows under the fanout are untouched" graph_gen (fun g ->
      let s = Sampling.neighborhood ~seed:5 ~fanout:1000 g in
      Granii_sparse.Csr.equal_structure s.Graph.adj g.Graph.adj)

let test_sampling_determinism () =
  let g = Generators.erdos_renyi ~seed:4 ~n:100 ~avg_degree:10. () in
  let a = Sampling.neighborhood ~seed:7 ~fanout:3 g in
  let b = Sampling.neighborhood ~seed:7 ~fanout:3 g in
  check_true "same seed same sample"
    (Granii_sparse.Csr.equal_structure a.Graph.adj b.Graph.adj);
  let c = Sampling.neighborhood ~seed:8 ~fanout:3 g in
  check_true "different seed differs"
    (not (Granii_sparse.Csr.equal_structure a.Graph.adj c.Graph.adj))

let test_induced_subgraph () =
  let g = Graph.of_edges ~name:"p4" ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let s = Sampling.induced_subgraph g [| 1; 2 |] in
  check_int "two nodes" 2 (Graph.n_nodes s);
  check_int "one undirected edge" 2 (Graph.n_edges s);
  Alcotest.check_raises "duplicate ids rejected"
    (Invalid_argument "Sampling.induced_subgraph: duplicate node id") (fun () ->
      ignore (Sampling.induced_subgraph g [| 1; 1 |]))

let test_features_star () =
  let f = Graph_features.extract (Generators.star ~n:100) in
  check_float "n" 100. f.Graph_features.n_nodes;
  check_true "high gini for star" (f.Graph_features.degree_gini > 0.45);
  check_true "high cv for star" (f.Graph_features.degree_cv > 3.)

let test_features_ring () =
  let f = Graph_features.extract (Generators.ring ~n:64) in
  check_float "regular graph: zero cv" 0. f.Graph_features.degree_cv;
  check_float "regular graph: zero gini" 0. f.Graph_features.degree_gini;
  check_float "avg degree 2" 2. f.Graph_features.avg_degree

let test_features_encoding =
  qtest "feature vector is finite and fixed-width" graph_gen (fun g ->
      let arr = Graph_features.to_array (Graph_features.extract g) in
      Array.length arr = Array.length Graph_features.names
      && Array.for_all (fun x -> Float.is_finite x) arr)

let suite =
  [ Alcotest.test_case "of_edges" `Quick test_of_edges;
    Alcotest.test_case "self loops and norm" `Quick test_self_loops_and_norm;
    test_self_loops_match_coo;
    Alcotest.test_case "self loops memoized" `Quick test_self_loops_memoized;
    Alcotest.test_case "self loops concurrent force" `Quick test_self_loops_concurrent;
    Alcotest.test_case "erdos-renyi" `Quick test_generator_er;
    Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
    Alcotest.test_case "barabasi-albert skew" `Quick test_generator_ba_skew;
    Alcotest.test_case "grid generator" `Quick test_generator_grid;
    Alcotest.test_case "mycielskian construction" `Quick test_generator_mycielskian;
    Alcotest.test_case "special graphs" `Quick test_generator_specials;
    Alcotest.test_case "dataset catalog" `Quick test_datasets_catalog;
    Alcotest.test_case "training pool disjoint" `Quick test_training_pool_disjoint;
    test_sampling_fanout;
    test_sampling_preserves_small_rows;
    Alcotest.test_case "sampling determinism" `Quick test_sampling_determinism;
    Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
    Alcotest.test_case "features: star" `Quick test_features_star;
    Alcotest.test_case "features: ring" `Quick test_features_ring;
    test_features_encoding ]
