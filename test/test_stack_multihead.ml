open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn

let graph = lazy (G.Generators.erdos_renyi ~seed:31 ~n:50 ~avg_degree:4. ())

let compiled_of model =
  let low = Mp.Lower.lower model in
  let compiled, _ =
    Granii.compile ~name:model.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      low.Mp.Lower.ir
  in
  (low, compiled)

let cm = Cost_oracle.analytic Granii_hw.Hw_profile.a100

let test_concat_split () =
  let a = Dense.random ~seed:1 4 3 and b = Dense.random ~seed:2 4 5 in
  let c = Dense.concat_cols [ a; b ] in
  check_int "width adds up" 8 (snd (Dense.dims c));
  check_float "left block preserved" (Dense.get a 2 1) (Dense.get c 2 1);
  check_float "right block preserved" (Dense.get b 3 4) (Dense.get c 3 7);
  let halves = Dense.split_cols (Dense.concat_cols [ a; Dense.random ~seed:3 4 3 ]) 2 in
  check_true "split inverts concat for equal widths"
    (Dense.equal_approx a (List.hd halves));
  Alcotest.check_raises "ragged concat rejected"
    (Invalid_argument "Dense.concat_cols: row count mismatch") (fun () ->
      ignore (Dense.concat_cols [ a; Dense.zeros 3 1 ]))

let test_stack_builds_per_layer_plans () =
  let graph = Lazy.force graph in
  let low, compiled = compiled_of Mp.Mp_models.gcn in
  let stack =
    Gnn.Stack.build ~oracle:cm ~graph ~compiled ~lowered:low
      ~dims:[ 64; 8; 4 ] ()
  in
  check_int "two layers" 2 (List.length (Gnn.Stack.plans stack));
  (* layer 1 shrinks 64->8 (update-first scenario), layer 2 shrinks 8->4 *)
  List.iter
    (fun plan ->
      check_true "plan selected" (List.length plan.Plan.steps > 0))
    (Gnn.Stack.plans stack)

let test_stack_forward_shapes () =
  let graph = Lazy.force graph in
  let n = G.Graph.n_nodes graph in
  let low, compiled = compiled_of Mp.Mp_models.gcn in
  let stack =
    Gnn.Stack.build ~oracle:cm ~graph ~compiled ~lowered:low ~dims:[ 6; 5; 3 ] ()
  in
  let features = Dense.random ~seed:7 n 6 in
  let out, reports = Gnn.Stack.forward ~graph ~features stack in
  check_int "rows preserved" n (fst (Dense.dims out));
  check_int "final width is last dim" 3 (snd (Dense.dims out));
  check_int "one report per layer" 2 (List.length reports)

let test_stack_matches_manual_two_layer () =
  (* stacking two layers must equal manually feeding layer 1's output into
     layer 2, and every kept report must still hold its layer's
     intermediates after the whole pass (train's backward reads them then);
     [6; 4; 4] gives both layers same-sized outputs *)
  let graph = Lazy.force graph in
  let n = G.Graph.n_nodes graph in
  let low, compiled = compiled_of Mp.Mp_models.gcn in
  List.iter
    (fun dims ->
      let stack =
        Gnn.Stack.build ~seed:5 ~oracle:cm ~graph ~compiled ~lowered:low ~dims ()
      in
      let features = Dense.random ~seed:8 n 6 in
      let out, reports = Gnn.Stack.forward ~graph ~features stack in
      let manual, manual_reports =
        List.fold_left
          (fun (h, acc) (layer : Gnn.Stack.layer) ->
            let bindings = Gnn.Layer.bindings ~graph ~h layer.Gnn.Stack.l_params in
            let r =
              Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure
                ~graph ~bindings layer.Gnn.Stack.l_plan
            in
            match r.Executor.output with
            | Executor.Vdense d -> (d, r :: acc)
            | _ -> Alcotest.fail "dense expected")
          (features, []) stack.Gnn.Stack.layers
      in
      check_true "stack = manual composition" (Dense.equal_approx out manual);
      List.iter2
        (fun ((r : Executor.report), _) (m : Executor.report) ->
          check_true "kept intermediates survive the later layers"
            (List.for_all2
               (fun (i, v) (j, w) ->
                 i = j
                 && List.for_all2 ( = ) (Dispatch.backing_arrays v)
                      (Dispatch.backing_arrays w))
               r.Executor.intermediates m.Executor.intermediates))
        reports (List.rev manual_reports))
    [ [ 6; 5; 3 ]; [ 6; 4; 4 ] ]

let test_stack_training_converges () =
  let graph = Lazy.force graph in
  let n = G.Graph.n_nodes graph in
  let low, compiled = compiled_of Mp.Mp_models.gcn in
  let classes = 3 in
  let stack =
    Gnn.Stack.build ~seed:2 ~oracle:cm ~graph ~compiled ~lowered:low
      ~dims:[ 8; 6; classes ] ()
  in
  let rng = Granii_tensor.Prng.create 17 in
  let labels = Array.init n (fun _ -> Granii_tensor.Prng.int rng classes) in
  let features =
    Dense.init n 8 (fun i j ->
        Granii_tensor.Prng.normal rng +. if j = labels.(i) then 2. else 0.)
  in
  let history =
    Gnn.Stack.train ~epochs:30
      ~optimizer:(Gnn.Optimizer.adam ~lr:0.03 ())
      ~graph ~features ~labels stack
  in
  let first = history.Gnn.Stack.losses.(0) and last = history.Gnn.Stack.losses.(29) in
  check_true
    (Printf.sprintf "2-layer loss decreases (%.4f -> %.4f)" first last)
    (last < first -. 0.05);
  check_true "learns the planted signal" (history.Gnn.Stack.train_accuracy > 0.5)

let test_stack_gat_training () =
  (* gradients must flow through the attention layers of a 2-layer GAT *)
  let graph = Lazy.force graph in
  let n = G.Graph.n_nodes graph in
  let low, compiled = compiled_of Mp.Mp_models.gat in
  let classes = 2 in
  let stack =
    Gnn.Stack.build ~seed:3 ~oracle:cm ~graph ~compiled ~lowered:low
      ~dims:[ 5; 4; classes ] ()
  in
  let rng = Granii_tensor.Prng.create 23 in
  let labels = Array.init n (fun _ -> Granii_tensor.Prng.int rng classes) in
  let features =
    Dense.init n 5 (fun i j ->
        Granii_tensor.Prng.normal rng +. if j = labels.(i) then 2. else 0.)
  in
  let history =
    Gnn.Stack.train ~epochs:25
      ~optimizer:(Gnn.Optimizer.adam ~lr:0.03 ())
      ~graph ~features ~labels stack
  in
  check_true "2-layer GAT loss decreases"
    (history.Gnn.Stack.losses.(24) < history.Gnn.Stack.losses.(0) -. 0.02)

let test_multihead_shapes () =
  let graph = Lazy.force graph in
  let n = G.Graph.n_nodes graph in
  let low, compiled = compiled_of Mp.Mp_models.gat in
  let mh =
    Gnn.Multi_head.create ~oracle:cm ~graph ~compiled ~lowered:low ~heads:4
      ~k_in:6 ~k_out_per_head:3 ()
  in
  check_int "head count" 4 (Gnn.Multi_head.n_heads mh);
  let out = Gnn.Multi_head.forward ~graph ~features:(Dense.random ~seed:9 n 6) mh in
  check_int "concatenated width" 12 (snd (Dense.dims out))

let test_multihead_single_equals_plain () =
  let graph = Lazy.force graph in
  let n = G.Graph.n_nodes graph in
  let low, compiled = compiled_of Mp.Mp_models.gat in
  let mh =
    Gnn.Multi_head.create ~seed:0 ~oracle:cm ~graph ~compiled ~lowered:low
      ~heads:1 ~k_in:6 ~k_out_per_head:3 ()
  in
  let features = Dense.random ~seed:10 n 6 in
  let via_mh = Gnn.Multi_head.forward ~graph ~features mh in
  let params = List.hd mh.Gnn.Multi_head.heads in
  let bindings = Gnn.Layer.bindings ~graph ~h:features params in
  let direct =
    match
      (Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure
         ~graph ~bindings mh.Gnn.Multi_head.plan)
        .Executor.output
    with
    | Executor.Vdense d -> d
    | _ -> Alcotest.fail "dense expected"
  in
  check_true "1 head = plain GAT" (Dense.equal_approx via_mh direct)

let test_multihead_time_scales () =
  let graph = Lazy.force graph in
  let n = G.Graph.n_nodes graph in
  let low, compiled = compiled_of Mp.Mp_models.gat in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in = 6; k_out = 3 } in
  let time heads =
    let mh =
      Gnn.Multi_head.create ~oracle:cm ~graph ~compiled ~lowered:low ~heads
        ~k_in:6 ~k_out_per_head:3 ()
    in
    Gnn.Multi_head.inference_time ~profile:Granii_hw.Hw_profile.a100 ~graph ~env mh
  in
  check_float ~eps:1e-9 "8 heads = 8x 1 head" (8. *. time 1) (time 8)

let suite =
  [ Alcotest.test_case "concat/split cols" `Quick test_concat_split;
    Alcotest.test_case "stack builds per-layer plans" `Quick
      test_stack_builds_per_layer_plans;
    Alcotest.test_case "stack forward shapes" `Quick test_stack_forward_shapes;
    Alcotest.test_case "stack = manual composition" `Quick
      test_stack_matches_manual_two_layer;
    Alcotest.test_case "2-layer GCN training converges" `Quick
      test_stack_training_converges;
    Alcotest.test_case "2-layer GAT training converges" `Quick test_stack_gat_training;
    Alcotest.test_case "multi-head shapes" `Quick test_multihead_shapes;
    Alcotest.test_case "1 head = plain GAT" `Quick test_multihead_single_equals_plain;
    Alcotest.test_case "multi-head time scales" `Quick test_multihead_time_scales ]
