open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn

let small_graph ?(seed = 3) ?(n = 60) () =
  G.Generators.erdos_renyi ~seed ~n ~avg_degree:5. ()

let compile_model ?(binned = false) (m : Mp.Mp_ast.model) =
  let low = Mp.Lower.lower m in
  let compiled, stats =
    Granii.compile ~name:m.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned)
      low.Mp.Lower.ir
  in
  (low, compiled, stats)

let run_candidate ~graph ~bindings (c : Codegen.ccand) =
  Executor.exec ~engine:(Engine.default ())
    ~timing:(Executor.Simulate Granii_hw.Hw_profile.a100) ~graph ~bindings
    c.Codegen.plan

let dense_of_output (r : Executor.report) =
  match r.Executor.output with
  | Executor.Vdense d -> d
  | Executor.Vsparse _ | Executor.Vdiag _ -> Alcotest.fail "expected dense output"

let setup_bindings ?(seed = 11) ~k_in low graph =
  let n = G.Graph.n_nodes graph in
  let env =
    { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out = 7 }
  in
  let params = Gnn.Layer.init_params ~seed ~env low in
  let h = Dense.random ~seed:(seed + 1) n k_in in
  (env, Gnn.Layer.bindings ~graph ~h params, h, params)

(* Every promoted candidate of every model must compute the same function. *)
let test_candidates_agree (m : Mp.Mp_ast.model) () =
  let graph = small_graph () in
  let low, compiled, _ = compile_model m in
  let _, bindings, _, _ = setup_bindings ~k_in:9 low graph in
  match compiled.Codegen.candidates with
  | [] -> Alcotest.fail "no candidates"
  | first :: rest ->
      let reference = dense_of_output (run_candidate ~graph ~bindings first) in
      List.iter
        (fun c ->
          let out = dense_of_output (run_candidate ~graph ~bindings c) in
          let diff = Dense.max_abs_diff reference out in
          check_true
            (Printf.sprintf "%s agrees with reference (diff %.2e)"
               c.Codegen.plan.Plan.name diff)
            (diff < 1e-8))
        rest

(* Hand-written dense reference for GCN: relu(D~ A~ D~ H W). *)
let test_gcn_against_dense_reference () =
  let graph = small_graph ~seed:5 ~n:40 () in
  let low, compiled, _ = compile_model Mp.Mp_models.gcn in
  let _, bindings, h, params = setup_bindings ~k_in:6 low graph in
  let a_dense = Granii_sparse.Csr.to_dense (G.Graph.with_self_loops graph) in
  let d = G.Graph.norm_inv_sqrt graph in
  let w = List.assoc "W" params in
  let expected =
    Dense.relu
      (Dense.row_broadcast d
         (Dense.matmul a_dense (Dense.row_broadcast d (Dense.matmul h w))))
  in
  List.iter
    (fun c ->
      let out = dense_of_output (run_candidate ~graph ~bindings c) in
      check_true
        (Printf.sprintf "%s matches dense math" c.Codegen.plan.Plan.name)
        (Dense.equal_approx ~eps:1e-8 expected out))
    compiled.Codegen.candidates

(* A stored diagonal entry is counted once in A~, so D~ = rowsum(A~), not
   degree + 1. Reference built densely from the adjacency. *)
let test_gcn_stored_self_loop () =
  let adj =
    Granii_sparse.Csr.make ~n_rows:3 ~n_cols:3 ~row_ptr:[| 0; 1; 4; 5 |]
      ~col_idx:[| 1; 0; 1; 2; 1 |] ~values:None
  in
  let graph = G.Graph.make ~name:"path3+loop" adj in
  let low, compiled, _ = compile_model Mp.Mp_models.gcn in
  let _, bindings, h, params = setup_bindings ~k_in:4 low graph in
  let a_dense = Granii_sparse.Csr.to_dense adj in
  for i = 0 to 2 do Dense.set a_dense i i 1. done;
  let d =
    Array.init 3 (fun i ->
        let s = ref 0. in
        for j = 0 to 2 do s := !s +. Dense.get a_dense i j done;
        1. /. sqrt !s)
  in
  let w = List.assoc "W" params in
  let expected =
    Dense.relu
      (Dense.row_broadcast d
         (Dense.matmul a_dense (Dense.row_broadcast d (Dense.matmul h w))))
  in
  List.iter
    (fun c ->
      let out = dense_of_output (run_candidate ~graph ~bindings c) in
      let diff = Dense.max_abs_diff expected out in
      check_true
        (Printf.sprintf "%s uses D~ = rowsum(A~) (diff %.2e)"
           c.Codegen.plan.Plan.name diff)
        (diff < 1e-12))
    compiled.Codegen.candidates

(* Hand-written reference for GAT. *)
let test_gat_against_dense_reference () =
  let graph = small_graph ~seed:6 ~n:30 () in
  let low, compiled, _ = compile_model Mp.Mp_models.gat in
  let _, bindings, h, params = setup_bindings ~k_in:5 low graph in
  let w = List.assoc "W" params in
  let a_src = List.assoc "Asrc" params and a_dst = List.assoc "Adst" params in
  let a_tilde = G.Graph.with_self_loops graph in
  let theta = Dense.matmul h w in
  let s = Dense.matmul theta a_src and t = Dense.matmul theta a_dst in
  let scores =
    Granii_sparse.Csr.map_values Fun.id a_tilde |> fun m ->
    let out = Array.make (Granii_sparse.Csr.nnz m) 0. in
    let idx = ref 0 in
    Granii_sparse.Csr.iter
      (fun i j _ ->
        let x = Dense.get s i 0 +. Dense.get t j 0 in
        out.(!idx) <- (if x > 0. then x else 0.2 *. x);
        incr idx)
      m;
    Granii_sparse.Csr.with_values m out
  in
  let alpha = Granii_sparse.Sparse_ops.row_softmax scores in
  let expected = Dense.relu (Granii_sparse.Spmm.run alpha theta) in
  List.iter
    (fun c ->
      let out = dense_of_output (run_candidate ~graph ~bindings c) in
      check_true
        (Printf.sprintf "%s matches attention math" c.Codegen.plan.Plan.name)
        (Dense.equal_approx ~eps:1e-8 expected out))
    compiled.Codegen.candidates

let test_phases () =
  let graph = small_graph () in
  let low, compiled, _ = compile_model Mp.Mp_models.gcn in
  let _, bindings, _, _ = setup_bindings ~k_in:9 low graph in
  (* the SDDMM-precompute candidate must hoist all graph-only work *)
  let precompute =
    List.find
      (fun c ->
        List.exists (( = ) Primitive.Sddmm_rank1) (Plan.primitives c.Codegen.plan))
      compiled.Codegen.candidates
  in
  let setup = Plan.setup_steps precompute.Codegen.plan in
  check_true "degree and SDDMM hoisted to setup" (List.length setup >= 2);
  List.iter
    (fun (s : Plan.step) ->
      match s.Plan.prim with
      | Primitive.Gemm _ | Primitive.Spmm _ ->
          Alcotest.fail "data-dependent step wrongly hoisted"
      | _ -> ())
    setup;
  let r = run_candidate ~graph ~bindings precompute in
  check_true "setup time accounted separately" (r.Executor.setup_time > 0.)

let test_no_hoist_baseline () =
  let low = Mp.Lower.lower Mp.Mp_models.gcn in
  let forest = Enumerate.forest low.Mp.Lower.ir in
  let plan =
    Plan.of_tree ~hoist:false
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:true)
      ~name:"baseline" (List.hd forest)
  in
  check_int "nothing in setup without hoisting" 0 (List.length (Plan.setup_steps plan));
  check_true "degree step present"
    (List.exists
       (fun (s : Plan.step) ->
         match s.Plan.prim with Primitive.Degree { binned = true; _ } -> true | _ -> false)
       plan.Plan.steps)

let test_input_names () =
  let low = Mp.Lower.lower Mp.Mp_models.gcn in
  let forest = Enumerate.forest low.Mp.Lower.ir in
  let plan =
    Plan.of_tree ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      ~name:"x" (List.hd forest)
  in
  let names = Plan.input_names plan in
  check_true "H and A and W required, D computed"
    (List.mem "H" names && List.mem "A" names && List.mem "W" names
    && not (List.mem "D" names))

let test_unbound_input_error () =
  let graph = small_graph () in
  let _, compiled, _ = compile_model Mp.Mp_models.gcn in
  let plan = (List.hd compiled.Codegen.candidates).Codegen.plan in
  check_true "unbound input raises Execution_error"
    (try
       ignore
         (Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure
            ~graph ~bindings:[] plan);
       false
     with Executor.Execution_error _ -> true)

let test_measure_mode () =
  let graph = small_graph () in
  let low, compiled, _ = compile_model Mp.Mp_models.gcn in
  let _, bindings, _, _ = setup_bindings ~k_in:9 low graph in
  let c = List.hd compiled.Codegen.candidates in
  let r =
    Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph
      ~bindings c.Codegen.plan
  in
  check_true "measured times are non-negative"
    (r.Executor.setup_time >= 0. && r.Executor.iteration_time >= 0.)

let test_estimate_consistent_with_simulation () =
  (* estimate (symbolic) and simulated execution should agree on ordering
     of two very different candidates. *)
  let graph = G.Generators.rmat ~seed:4 ~scale:9 ~edge_factor:32 () in
  let _, compiled, _ = compile_model Mp.Mp_models.gcn in
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in = 64; k_out = 8 } in
  let profile = Granii_hw.Hw_profile.a100 in
  List.iter
    (fun (c : Codegen.ccand) ->
      let setup, iter = Executor.estimate ~profile ~env c.Codegen.plan in
      check_true "estimates are positive and finite"
        (setup >= 0. && iter > 0. && Float.is_finite (setup +. iter)))
    compiled.Codegen.candidates

let test_sampled_graph_costs_less () =
  (* executing on a sampled graph must charge fewer SpMM bytes *)
  let graph = G.Generators.rmat ~seed:8 ~scale:9 ~edge_factor:16 () in
  let sampled = G.Sampling.neighborhood ~seed:1 ~fanout:2 graph in
  let low, compiled, _ = compile_model Mp.Mp_models.gcn in
  let c = List.hd compiled.Codegen.candidates in
  let time g =
    let _, bindings, _, _ = setup_bindings ~k_in:16 low g in
    let r = run_candidate ~graph:g ~bindings c in
    r.Executor.setup_time +. r.Executor.iteration_time
  in
  check_true "sampled graph simulates faster" (time sampled < time graph)

let test_kind_mismatch_errors () =
  let graph = small_graph () in
  let h = Dense.random ~seed:1 (G.Graph.n_nodes graph) 4 in
  let raises f =
    try ignore (f ()); false with Executor.Execution_error _ -> true
  in
  check_true "gemm on sparse operand rejected"
    (raises (fun () ->
         Executor.apply
           (Primitive.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.Kout })
           graph
           [ Executor.Vsparse graph.G.Graph.adj; Executor.Vdense h ]));
  check_true "spmm on dense first operand rejected"
    (raises (fun () ->
         Executor.apply
           (Primitive.Spmm { k = Dim.Kin; weighted = false })
           graph
           [ Executor.Vdense h; Executor.Vdense h ]));
  check_true "wrong arity rejected"
    (raises (fun () ->
         Executor.apply Primitive.Diag_combine graph [ Executor.Vdense h ]));
  check_true "edge_softmax needs sparse"
    (raises (fun () ->
         Executor.apply Primitive.Edge_softmax graph [ Executor.Vdense h ]))

let test_apply_matches_plan_step () =
  (* Executor.apply is the same dispatch plans use: a GEMM applied directly
     equals Dense.matmul. *)
  let a = Dense.random ~seed:3 5 4 and b = Dense.random ~seed:4 4 6 in
  let graph = small_graph () in
  match
    Executor.apply
      (Primitive.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.Kout })
      graph
      [ Executor.Vdense a; Executor.Vdense b ]
  with
  | Executor.Vdense c -> check_true "apply = matmul" (Dense.equal_approx c (Dense.matmul a b))
  | _ -> Alcotest.fail "dense expected"

let model_case m =
  Alcotest.test_case
    (Printf.sprintf "%s candidates agree" m.Mp.Mp_ast.name)
    `Quick (test_candidates_agree m)

let suite =
  List.map model_case Mp.Mp_models.all
  @ [ Alcotest.test_case "GCN dense reference" `Quick test_gcn_against_dense_reference;
      Alcotest.test_case "GCN with a stored self-loop" `Quick test_gcn_stored_self_loop;
      Alcotest.test_case "GAT dense reference" `Quick test_gat_against_dense_reference;
      Alcotest.test_case "setup/iteration phases" `Quick test_phases;
      Alcotest.test_case "baseline does not hoist" `Quick test_no_hoist_baseline;
      Alcotest.test_case "plan input names" `Quick test_input_names;
      Alcotest.test_case "unbound input error" `Quick test_unbound_input_error;
      Alcotest.test_case "measure mode" `Quick test_measure_mode;
      Alcotest.test_case "estimates finite" `Quick test_estimate_consistent_with_simulation;
      Alcotest.test_case "sampling reduces simulated cost" `Quick
        test_sampled_graph_costs_less;
      Alcotest.test_case "kind mismatches rejected" `Quick test_kind_mismatch_errors;
      Alcotest.test_case "apply = plan dispatch" `Quick test_apply_matches_plan_step ]
