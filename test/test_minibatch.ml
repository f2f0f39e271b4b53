(* Mini-batch training (lib/graph Sampling.layered_fanout, lib/gnn Loader +
   Trainer.train_minibatch).

   The load-bearing property is the pipelining contract: batch content is a
   pure function of (seed, masked node set, fanouts, batch_size, batch
   index), so the pipelined loader arm must reproduce the sequential arm
   bitwise — checked here as a differential over engine widths
   (threads 1/2). The sampler is pinned separately
   (determinism in seed, compact renumbering against the Hashtbl-based
   induced_subgraph oracle, fanout >= degree and isolated-seed edges), and
   the bucketed plan-cache keying gets its regression: two structurally
   similar mini-batches share a key, a different size family does not. *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module Prng = Granii_tensor.Prng
module Csr = Granii_sparse.Csr
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn

let graph () = G.Generators.rmat ~seed:3 ~scale:8 ~edge_factor:8 ()

let adj (g : G.Graph.t) = g.G.Graph.adj

(* The sampler on a fresh scratch. *)
let layered ?seed ~fanouts ~seeds g =
  G.Sampling.layered_fanout ~scratch:(G.Sampling.scratch ()) ?seed ~fanouts ~seeds g

let graph_bits_equal (a : G.Graph.t) (b : G.Graph.t) =
  (adj a).Csr.row_ptr = (adj b).Csr.row_ptr
  && (adj a).Csr.col_idx = (adj b).Csr.col_idx

(* ---- sampler: determinism and seed sensitivity ---- *)

let test_layered_deterministic () =
  let g = graph () in
  let seeds = G.Sampling.random_nodes ~seed:4 g 40 in
  let s1 = layered ~seed:9 ~fanouts:[ 5; 3 ] ~seeds g in
  let s2 = layered ~seed:9 ~fanouts:[ 5; 3 ] ~seeds g in
  check_true "same seed: same subgraph"
    (graph_bits_equal s1.G.Sampling.subgraph s2.G.Sampling.subgraph);
  check_true "same seed: same node map"
    (s1.G.Sampling.nodes = s2.G.Sampling.nodes);
  check_int "seeds first" 40 s1.G.Sampling.n_seeds;
  Array.iteri
    (fun i oi -> check_int "seed order preserved" seeds.(i) oi)
    (Array.sub s1.G.Sampling.nodes 0 40);
  let s3 = layered ~seed:10 ~fanouts:[ 5; 3 ] ~seeds g in
  check_true "different seed: different draw"
    (not (graph_bits_equal s1.G.Sampling.subgraph s3.G.Sampling.subgraph)
    || s1.G.Sampling.nodes <> s3.G.Sampling.nodes);
  (* CSR invariants of the sampled subgraph *)
  let sub = adj s1.G.Sampling.subgraph in
  let sorted = ref true and in_range = ref true in
  let k = Array.length s1.G.Sampling.nodes in
  for r = 0 to k - 1 do
    for p = sub.Csr.row_ptr.(r) to sub.Csr.row_ptr.(r + 1) - 1 do
      if p > sub.Csr.row_ptr.(r) && sub.Csr.col_idx.(p - 1) >= sub.Csr.col_idx.(p)
      then sorted := false;
      if sub.Csr.col_idx.(p) < 0 || sub.Csr.col_idx.(p) >= k then
        in_range := false
    done
  done;
  check_true "columns sorted strictly (no duplicate edges)" !sorted;
  check_true "columns in compact range" !in_range;
  (* every sampled edge exists in the original graph *)
  let orig = adj g in
  let all_real = ref true in
  for r = 0 to k - 1 do
    let u = s1.G.Sampling.nodes.(r) in
    for p = sub.Csr.row_ptr.(r) to sub.Csr.row_ptr.(r + 1) - 1 do
      let v = s1.G.Sampling.nodes.(sub.Csr.col_idx.(p)) in
      let found = ref false in
      for q = orig.Csr.row_ptr.(u) to orig.Csr.row_ptr.(u + 1) - 1 do
        if orig.Csr.col_idx.(q) = v then found := true
      done;
      if not !found then all_real := false
    done
  done;
  check_true "every sampled edge is an original edge" !all_real

let test_layered_validation () =
  let g = graph () in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "empty fanouts" (fun () ->
      layered ~fanouts:[] ~seeds:[| 0 |] g);
  expect_invalid "non-positive fanout" (fun () ->
      layered ~fanouts:[ 5; 0 ] ~seeds:[| 0 |] g);
  expect_invalid "empty seeds" (fun () ->
      layered ~fanouts:[ 5 ] ~seeds:[||] g);
  expect_invalid "out-of-range seed" (fun () ->
      layered ~fanouts:[ 5 ] ~seeds:[| G.Graph.n_nodes g |] g);
  expect_invalid "duplicate seed" (fun () ->
      layered ~fanouts:[ 5 ] ~seeds:[| 1; 1 |] g)

(* fanout >= degree keeps the full frontier neighborhood; isolated seeds
   produce an edge-free subgraph over exactly the seed set *)
let test_layered_edge_cases () =
  let g = graph () in
  let orig = adj g in
  let seeds = [| 0; 7; 19 |] in
  let huge = layered ~seed:1 ~fanouts:[ 100000 ] ~seeds g in
  let sub = adj huge.G.Sampling.subgraph in
  Array.iteri
    (fun i u ->
      let deg = orig.Csr.row_ptr.(u + 1) - orig.Csr.row_ptr.(u) in
      check_int "fanout >= degree keeps every in-edge" deg
        (sub.Csr.row_ptr.(i + 1) - sub.Csr.row_ptr.(i)))
    seeds;
  (* an isolated graph: no edges anywhere *)
  let iso =
    G.Graph.make ~name:"iso"
      (Csr.make ~n_rows:6 ~n_cols:6 ~row_ptr:(Array.make 7 0) ~col_idx:[||]
         ~values:None)
  in
  let s = layered ~seed:1 ~fanouts:[ 4; 4 ] ~seeds:[| 2; 5 |] iso in
  check_int "isolated seeds: only the seeds"
    2 (Array.length s.G.Sampling.nodes);
  check_int "isolated seeds: no edges"
    0 (G.Graph.n_edges s.G.Sampling.subgraph)

(* ---- compact renumbering vs the Hashtbl oracle ---- *)

let test_induced_compact_roundtrip () =
  let g = graph () in
  let rng = Prng.create 17 in
  for trial = 0 to 9 do
    let k = 1 + Prng.int rng 100 in
    let nodes = Prng.sample_without_replacement rng k (G.Graph.n_nodes g) in
    if trial mod 2 = 0 then Prng.shuffle_in_place rng nodes;
    let fast = G.Sampling.induced_compact g nodes in
    let oracle = G.Sampling.induced_subgraph g nodes in
    check_true "induced_compact == induced_subgraph"
      (graph_bits_equal fast oracle)
  done;
  (match G.Sampling.induced_compact g [| 0; 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate node accepted");
  match G.Sampling.induced_compact g [| -1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range node accepted"

(* ---- loader: arm- and thread-independence of batch content ---- *)

let batch_bits_equal (a : Gnn.Loader.batch) (b : Gnn.Loader.batch) =
  a.Gnn.Loader.epoch = b.Gnn.Loader.epoch
  && a.Gnn.Loader.index = b.Gnn.Loader.index
  && graph_bits_equal a.Gnn.Loader.sample.G.Sampling.subgraph
       b.Gnn.Loader.sample.G.Sampling.subgraph
  && a.Gnn.Loader.sample.G.Sampling.nodes = b.Gnn.Loader.sample.G.Sampling.nodes
  && a.Gnn.Loader.labels = b.Gnn.Loader.labels
  && a.Gnn.Loader.mask = b.Gnn.Loader.mask
  && Array.for_all2
       (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
       a.Gnn.Loader.features.Dense.data b.Gnn.Loader.features.Dense.data

let drain loader =
  let rec go acc =
    match Gnn.Loader.next loader with
    | None -> List.rev acc
    | Some b -> go (b :: acc)
  in
  Fun.protect ~finally:(fun () -> Gnn.Loader.shutdown loader) (fun () -> go [])

let test_loader_arms_identical () =
  let g = graph () in
  let n = G.Graph.n_nodes g in
  let rng = Prng.create 5 in
  let labels = Array.init n (fun _ -> Prng.int rng 4) in
  let features = Dense.random ~seed:6 n 8 in
  let mask = Array.init n (fun i -> i mod 3 <> 0) in
  let make ~mode ~threads =
    Gnn.Loader.create ~seed:2 ~mask ~threads ~mode ~fanouts:[ 6; 3 ]
      ~batch_size:50 ~epochs:2 ~graph:g ~features ~labels ()
  in
  let seq = drain (make ~mode:Gnn.Loader.Sequential ~threads:1) in
  let pipe = drain (make ~mode:Gnn.Loader.Pipelined ~threads:1) in
  let pipe2 = drain (make ~mode:Gnn.Loader.Pipelined ~threads:2) in
  check_int "same batch count" (List.length seq) (List.length pipe);
  List.iter2
    (fun a b -> check_true "pipelined batch == sequential batch"
        (batch_bits_equal a b))
    seq pipe;
  List.iter2
    (fun a b -> check_true "featurizer threads don't change content"
        (batch_bits_equal a b))
    seq pipe2;
  (* epochs reshuffle: the same seed set in a different order *)
  let e0 = List.filter (fun b -> b.Gnn.Loader.epoch = 0) seq in
  let e1 = List.filter (fun b -> b.Gnn.Loader.epoch = 1) seq in
  let seeds_of bs =
    List.concat_map
      (fun (b : Gnn.Loader.batch) ->
        Array.to_list
          (Array.sub b.Gnn.Loader.sample.G.Sampling.nodes 0
             b.Gnn.Loader.sample.G.Sampling.n_seeds))
      bs
  in
  let s0 = seeds_of e0 and s1 = seeds_of e1 in
  check_true "epochs cover the same masked set"
    (List.sort compare s0 = List.sort compare s1);
  check_true "epochs are reshuffled" (s0 <> s1);
  check_true "only masked nodes are seeds"
    (List.for_all (fun i -> mask.(i)) s0)

(* a shutdown mid-stream must not hang or leak the loader domain *)
let test_loader_early_shutdown () =
  let g = graph () in
  let n = G.Graph.n_nodes g in
  let labels = Array.make n 0 in
  let features = Dense.random ~seed:1 n 4 in
  let loader =
    Gnn.Loader.create ~mode:Gnn.Loader.Pipelined ~fanouts:[ 4 ]
      ~batch_size:16 ~epochs:3 ~graph:g ~features ~labels ()
  in
  check_true "first batch arrives" (Gnn.Loader.next loader <> None);
  Gnn.Loader.shutdown loader;
  Gnn.Loader.shutdown loader (* idempotent *)

(* ---- the tentpole guarantee: pipelined training == sequential ---- *)

let test_minibatch_bitwise_differential () =
  let g = graph () in
  let n = G.Graph.n_nodes g in
  let classes = 4 and k_in = 8 in
  let rng = Prng.create 7 in
  let labels = Array.init n (fun _ -> Prng.int rng classes) in
  let features = Dense.random ~seed:8 n k_in in
  let low, compiled = Test_engine.compile_model (Mp.Mp_models.find "gcn") in
  let env = { Dim.n; nnz = G.Graph.n_edges g + n; k_in; k_out = classes } in
  let params = Gnn.Layer.init_params ~seed:3 ~env low in
  let cm = Cost_oracle.analytic Granii_hw.Hw_profile.cpu in
  let run ~mode ~threads =
    let engine = Engine.create_exn { Engine.default_config with threads } in
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () ->
        Gnn.Trainer.train_minibatch ~seed:1 ~engine ~mode ~classes
          ~fanouts:[ 5; 3 ] ~epochs:2 ~batch_size:64
          ~optimizer:(Gnn.Optimizer.adam ~lr:0.02 ())
          ~oracle:cm ~compiled ~graph:g ~features ~labels ~params ())
  in
  List.iter
    (fun threads ->
      let seq = run ~mode:Gnn.Loader.Sequential ~threads in
      let pipe = run ~mode:Gnn.Loader.Pipelined ~threads in
      let tag = Printf.sprintf "t=%d" threads in
      Array.iteri
        (fun e l ->
          check_true (Printf.sprintf "%s epoch %d loss bitwise" tag e)
            (Int64.bits_of_float l
            = Int64.bits_of_float pipe.Gnn.Trainer.epoch_losses.(e)))
        seq.Gnn.Trainer.epoch_losses;
      Array.iteri
        (fun e row ->
          Array.iteri
            (fun i l ->
              check_true (Printf.sprintf "%s batch %d.%d loss bitwise" tag e i)
                (Int64.bits_of_float l
                = Int64.bits_of_float pipe.Gnn.Trainer.batch_losses.(e).(i)))
            row)
        seq.Gnn.Trainer.batch_losses;
      check_true (tag ^ " losses actually move")
        (seq.Gnn.Trainer.epoch_losses.(0)
        <> seq.Gnn.Trainer.epoch_losses.(1));
      check_true (tag ^ " no stall in sequential mode")
        (seq.Gnn.Trainer.stall_time = 0.))
    [ 1; 2 ]

(* the trainer rejects engines autodiff cannot use *)
let test_minibatch_engine_legality () =
  let g = graph () in
  let n = G.Graph.n_nodes g in
  let labels = Array.make n 0 in
  let features = Dense.random ~seed:1 n 4 in
  let _, compiled = Test_engine.compile_model (Mp.Mp_models.find "gcn") in
  let low = Mp.Lower.lower (Mp.Mp_models.find "gcn") in
  let env = { Dim.n; nnz = G.Graph.n_edges g + n; k_in = 4; k_out = 2 } in
  let params = Gnn.Layer.init_params ~seed:3 ~env low in
  let attempt engine =
    Gnn.Trainer.train_minibatch ~engine ~fanouts:[ 4 ] ~epochs:1
      ~batch_size:32
      ~optimizer:(Gnn.Optimizer.sgd ~lr:0.1 ())
      ~oracle:(Cost_oracle.analytic Granii_hw.Hw_profile.cpu)
      ~compiled ~graph:g ~features ~labels ~params ()
  in
  let dropping =
    Engine.create_exn
      { Engine.default_config with keep_intermediates = false }
  in
  match attempt dropping with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted an intermediate-dropping engine"

(* ---- the shared keying policy: bucketed fingerprints ---- *)

let test_bucketed_cache_keys () =
  let g = graph () in
  let sample i =
    let seeds = G.Sampling.random_nodes ~seed:i g 48 in
    (layered ~seed:i ~fanouts:[ 6; 3 ] ~seeds g)
      .G.Sampling.subgraph
  in
  (* bucketing is coarse, not exact: same-shape draws near a bucket
     boundary may split, so assert that most of a batch-shape family
     coincides and take one coinciding pair for the hit check *)
  let draws = List.init 6 (fun i -> sample (i + 1)) in
  let fps = List.map Plan_cache.bucketed_fingerprint draws in
  let majority =
    List.fold_left
      (fun best fp ->
        let c = List.length (List.filter (String.equal fp) fps) in
        if c > snd best then (fp, c) else best)
      ("", 0) fps
  in
  check_true "most same-shape mini-batches share a bucket"
    (snd majority >= 4);
  let a, b =
    match
      List.filter
        (fun g_ ->
          String.equal (Plan_cache.bucketed_fingerprint g_) (fst majority))
        draws
    with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "unreachable: majority bucket has >= 4 members"
  in
  check_true "the pair shares a bucket"
    (String.equal
       (Plan_cache.bucketed_fingerprint a)
       (Plan_cache.bucketed_fingerprint b));
  (* a structurally different graph (another size family) must miss *)
  let other = G.Generators.grid2d ~rows:60 ~cols:60 () in
  check_true "a different size family lands in another bucket"
    (not
       (String.equal
          (Plan_cache.bucketed_fingerprint a)
          (Plan_cache.bucketed_fingerprint other)));
  (* the policy drives real hits/misses through the one key constructor *)
  let _, compiled = Test_engine.compile_model (Mp.Mp_models.find "gcn") in
  let env g_ =
    { Dim.n = G.Graph.n_nodes g_;
      nnz = G.Graph.n_edges g_ + G.Graph.n_nodes g_;
      k_in = 8; k_out = 4 }
  in
  let lc g_ =
    Selector.select_localized
      ~oracle:(Cost_oracle.analytic Granii_hw.Hw_profile.cpu)
      ~feats:(Featurizer.extract g_) ~env:(env g_) ~iterations:1
      ~configs:[ Locality.default ] compiled
  in
  let key g_ =
    Plan_cache.key_of ~graph_fp:(Plan_cache.bucketed_fingerprint g_)
      ~model:"GCN" ~k_in:8 ~k_out:4 ~hw:"cpu" ~threads:1
      ~locality:Locality.default
  in
  let pc = Plan_cache.create ~capacity:4 () in
  check_true "cold miss" (Plan_cache.find pc (key a) = None);
  Plan_cache.add pc (key a) (lc a);
  check_true "same-bucket batch hits" (Plan_cache.find pc (key b) <> None);
  check_true "different family misses" (Plan_cache.find pc (key other) = None);
  let s = Plan_cache.stats pc in
  check_int "hits" 1 s.Plan_cache.hits;
  check_int "misses" 2 s.Plan_cache.misses;
  (* key_of normalizes the model-name case: serve lowercases, the trainer
     passes Codegen's name verbatim — both must land on one key *)
  check_true "model name is case-normalized"
    ((key a).Plan_cache.model = "gcn")

(* Boundary values of the bucket formula itself: node/edge buckets are
   floor-log2, the degree bucket is 2*avg_degree rounded half away from
   zero — each boundary is pinned by an exact expected string. *)
let test_bucketed_fingerprint_boundaries () =
  let path n_nodes n_edges =
    (* a path with [n_edges] undirected edges -> 2*n_edges CSR entries *)
    G.Graph.of_edges ~name:"fp" ~n:n_nodes
      (List.init n_edges (fun i -> (i, i + 1)))
  in
  let expect name g s =
    check_true
      (Printf.sprintf "%s: n=%d nnz=%d -> %s" name (G.Graph.n_nodes g)
         (G.Graph.n_edges g) s)
      (String.equal (Plan_cache.bucketed_fingerprint g) s)
  in
  (* half-step degree rounding: 2*10/8 = 2.5 rounds away to d3, while
     2*8/8 = 2.0 stays d2 — the boundary between the two degree rungs *)
  expect "degree boundary above" (path 8 5) "bkt:n2^3:e2^3:d3";
  expect "degree boundary below" (path 8 4) "bkt:n2^3:e2^3:d2";
  (* edge-bucket boundary: nnz 8 -> e2^3, nnz 6 -> e2^2 *)
  expect "edge bucket below the power of two" (path 8 3) "bkt:n2^3:e2^2:d2";
  (* node-bucket boundary: n=8 -> n2^3, n=7 -> n2^2 (floor log2) *)
  expect "node bucket below the power of two" (path 7 3) "bkt:n2^2:e2^2:d2";
  (* degenerate graphs take the zero buckets rather than raising *)
  expect "single node, no edges" (path 1 0) "bkt:n2^0:e2^0:d0";
  expect "nodes but no edges" (path 4 0) "bkt:n2^2:e2^0:d0"

let suite =
  [ Alcotest.test_case "layered sampler: deterministic in seed" `Quick
      test_layered_deterministic;
    Alcotest.test_case "layered sampler: input validation" `Quick
      test_layered_validation;
    Alcotest.test_case "layered sampler: fanout >= degree, isolated seeds"
      `Quick test_layered_edge_cases;
    Alcotest.test_case "induced_compact == induced_subgraph oracle" `Quick
      test_induced_compact_roundtrip;
    Alcotest.test_case "loader: pipelined == sequential == threaded" `Quick
      test_loader_arms_identical;
    Alcotest.test_case "loader: early shutdown joins the domain" `Quick
      test_loader_early_shutdown;
    Alcotest.test_case
      "train_minibatch: pipelined bitwise == sequential (engine grid)" `Quick
      test_minibatch_bitwise_differential;
    Alcotest.test_case "train_minibatch: engine legality" `Quick
      test_minibatch_engine_legality;
    Alcotest.test_case "plan cache: bucketed fingerprint keying" `Quick
      test_bucketed_cache_keys;
    Alcotest.test_case "plan cache: fingerprint bucket boundaries" `Quick
      test_bucketed_fingerprint_boundaries ]
