(* Branch-free selects and fused row epilogues.

   Every select kernel is checked bitwise against the branchy loop it
   replaced, kept here as the reference, on values that stress the
   comparison: signed zeros, infinities, NaNs (quiet, signalling, negative)
   and subnormals. Every epilogue path is checked bitwise against its
   separate passes, and the executor's fusion rule is checked on the
   plans it must and must not fuse. *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module Vector = Granii_tensor.Vector
module Parallel = Granii_tensor.Parallel
module Semiring = Granii_tensor.Semiring
module Csr = Granii_sparse.Csr
module Spmm = Granii_sparse.Spmm
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn
module Serve = Granii_serve.Serve
module Obs = Granii_obs.Obs

let bits x = Int64.bits_of_float x
let bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let dense_equal (a : Dense.t) (b : Dense.t) =
  Dense.dims a = Dense.dims b && bits_equal a.Dense.data b.Dense.data

let specials =
  [| 0.; -0.; infinity; neg_infinity; nan; -.nan;
     Int64.float_of_bits 0x7FF0000000000001L (* signalling NaN *);
     Int64.float_of_bits 0x7FF8000000000123L (* NaN with a payload *);
     5e-324; -5e-324; 2.2250738585072009e-308; -2.2250738585072009e-308;
     1.; -1.; 0.5; -0.5 |]

(* Vectors of length 0, 1 or up to 60, each entry a special or a random
   float of either sign. *)
let values_gen =
  let open QCheck2.Gen in
  let entry =
    oneof [ oneofa specials; float_range (-4.) 4.; map (fun x -> x *. 1e-310) (float_range (-1.) 1.) ]
  in
  let* len = oneof [ return 0; return 1; int_range 2 60 ] in
  array_size (return len) entry

(* Each property runs sequentially and on pools 1 and 2 wide. *)
let with_pools f =
  let one = Parallel.create ~threads:1 () and two = Parallel.create ~threads:2 () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown one; Parallel.shutdown two)
    (fun () -> f None && f (Some one) && f (Some two))

(* ---- the branchy references ---- *)

let relu_ref x = if x > 0. then x else 0.
let leaky_ref slope x = if x > 0. then x else slope *. x

let test_relu_select =
  qtest ~count:300 "relu and leaky relu selects are bitwise the branch" values_gen
    (fun v ->
      let m = Dense.of_flat ~rows:(Array.length v) ~cols:1 v in
      with_pools (fun pool ->
          let r = Dense.relu ?pool m and l = Dense.leaky_relu ?pool m in
          let l3 = Dense.leaky_relu ?pool ~slope:(-3.) m in
          bits_equal r.Dense.data (Array.map relu_ref v)
          && bits_equal l.Dense.data (Array.map (leaky_ref 0.2) v)
          && bits_equal l3.Dense.data (Array.map (leaky_ref (-3.)) v)))

(* [Edge_score] on an n x 1 feature column with unit attention vectors:
   the score inputs [s_i + t_j] range over the specials' sums. *)
let test_edge_score_select =
  qtest ~count:200 "edge-score leaky relu select is bitwise the branch" values_gen
    (fun v ->
      let n = Array.length v in
      let mask =
        Csr.make ~n_rows:n ~n_cols:n
          ~row_ptr:(Array.init (n + 1) (fun i -> min (3 * i) (3 * n)))
          ~col_idx:(Array.init (3 * n) (fun p -> ((p * 7) + (p / 3)) mod max n 1))
          ~values:None
      in
      let feats = Dense.of_flat ~rows:n ~cols:1 v in
      let unit = Dense.of_flat ~rows:1 ~cols:1 [| 1. |] in
      let s = Dense.matmul feats unit in
      let expect =
        Array.init (3 * n) (fun p ->
            let i = p / 3 in
            leaky_ref 0.2 (s.Dense.data.(i) +. s.Dense.data.(mask.Csr.col_idx.(p))))
      in
      with_pools (fun pool ->
          match
            Executor.apply ?pool (Primitive.Edge_score { k = Dim.Kout }) (G.Graph.make ~name:"g" mask)
              [ Executor.Vsparse mask; Executor.Vdense feats; Executor.Vdense unit;
                Executor.Vdense unit ]
          with
          | Executor.Vsparse out -> bits_equal (Option.get out.Csr.values) expect
          | _ -> false))

(* The reverse pass of a plan that maps its input directly: the input's
   gradient is the map VJP itself, for any activation [x] and cotangent. *)
let test_map_vjp_select =
  qtest ~count:200 "relu and leaky relu VJP selects are bitwise the branch"
    QCheck2.Gen.(pair values_gen values_gen)
    (fun (x, g) ->
      let n = min (Array.length x) (Array.length g) in
      let x = Array.sub x 0 n and g = Array.sub g 0 n in
      let graph = G.Generators.star ~n:2 in
      List.for_all
        (fun (kind, reference) ->
          let plan =
            { Plan.steps =
                [ { Plan.idx = 0; prim = Primitive.Dense_map { kind; m = Dim.N; k = Dim.Kout };
                    args = [ Plan.Input "X" ]; phase = Plan.Per_iteration } ];
              output = Plan.Computed 0;
              name = "map" }
          in
          let bindings = [ ("X", Executor.Vdense (Dense.of_flat ~rows:n ~cols:1 x)) ] in
          let forward =
            Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph
              ~bindings plan
          in
          let grads =
            Gnn.Autodiff.backward ~plan ~graph ~bindings ~forward
              ~seed:(Dense.of_flat ~rows:n ~cols:1 g)
          in
          bits_equal (List.assoc "X" grads).Dense.data (Array.init n (fun i -> reference x.(i) g.(i))))
        [ (Matrix_ir.Relu, fun x g -> if x > 0. then g else 0.);
          (Matrix_ir.Leaky_relu, fun x g -> if x > 0. then g else 0.2 *. g) ])

let test_edge_score_sums_select =
  qtest ~count:200 "edge-score VJP slope select is bitwise the branch"
    QCheck2.Gen.(pair values_gen values_gen)
    (fun (sv, gv) ->
      let nnz = min (Array.length sv) (Array.length gv) in
      let rows = max 1 ((nnz + 2) / 3) in
      let row_ptr = Array.init (rows + 1) (fun i -> min nnz (3 * i)) in
      row_ptr.(rows) <- nnz;
      let col_idx = Array.init nnz (fun p -> (p * 5) mod rows) in
      let mk v = Csr.make ~n_rows:rows ~n_cols:rows ~row_ptr ~col_idx ~values:(Some (Array.sub v 0 nnz)) in
      let scores = mk sv and g = mk gv in
      let ds = Array.make rows 0. and dt = Array.make rows 0. in
      for i = 0 to rows - 1 do
        let acc = ref 0. in
        for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let slope = if sv.(p) >= 0. then 1. else 0.2 in
          let v = slope *. gv.(p) in
          acc := !acc +. v;
          dt.(col_idx.(p)) <- dt.(col_idx.(p)) +. v
        done;
        ds.(i) <- !acc
      done;
      let ds', dt' = Gnn.Autodiff.edge_score_sums scores g in
      bits_equal ds ds' && bits_equal dt dt')

(* ---- epilogues against separate passes ---- *)

let op_gen ~rows =
  let open QCheck2.Gen in
  oneof
    [ map (fun seed -> Dense.Scale_rows (Dense.random ~seed ~scale:2. rows 1).Dense.data)
        (int_range 0 1000);
      return Dense.Relu;
      map (fun s -> Dense.Leaky_relu s) (oneofl [ 0.2; -1.5; 0. ]);
      return Dense.Sigmoid ]

let apply_ref ep m =
  List.fold_left
    (fun m op ->
      match op with
      | Dense.Scale_rows d -> Dense.row_broadcast d m
      | Dense.Relu -> Dense.relu m
      | Dense.Leaky_relu slope -> Dense.leaky_relu ~slope m
      | Dense.Sigmoid -> Dense.sigmoid m)
    m ep

(* random entries, one in nine a special *)
let dense_specials ~seed rows cols =
  let d = Dense.random ~seed ~scale:2. rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if (i + (5 * j) + seed) mod 9 = 0 then
        Dense.set d i j specials.((i + j + seed) mod Array.length specials)
    done
  done;
  d

let test_gemm_epilogue =
  let open QCheck2.Gen in
  qtest ~count:120 "GEMM epilogue is bitwise its separate passes"
    (let* m = oneof [ return 0; return 1; int_range 2 70; int_range 300 700 ] in
     let* k = oneof [ int_range 1 7; int_range 8 40 ] in
     let* n = oneof [ int_range 1 3; int_range 4 9; int_range 16 33 ] in
     let* ep = list_size (int_range 0 3) (op_gen ~rows:m) in
     let* seed = int_range 0 1000 in
     return (m, k, n, ep, seed))
    (fun (m, k, n, ep, seed) ->
      let a = dense_specials ~seed m k and b = Dense.random ~seed:(seed + 1) ~scale:2. k n in
      let expect = apply_ref ep (Dense.matmul a b) in
      with_pools (fun pool ->
          let ws = Granii_tensor.Workspace.create () in
          dense_equal expect (Dense.matmul ?pool ~epilogue:ep a b)
          && dense_equal expect (Dense.matmul ?pool ~ws ~epilogue:ep a b)))

let test_spmm_epilogue =
  let open QCheck2.Gen in
  qtest ~count:120 "SpMM epilogue is bitwise its separate passes"
    (let* a = csr_gen in
     let* k = oneof [ int_range 1 3; int_range 4 20 ] in
     let* tile = oneof [ return None; map Option.some (int_range 1 9) ] in
     let* sr = oneofl [ Semiring.plus_times; Semiring.plus_rhs; Semiring.max_plus ] in
     let* unweighted = bool in
     let* ep = list_size (int_range 1 3) (op_gen ~rows:a.Csr.n_rows) in
     let* seed = int_range 0 1000 in
     return ((if unweighted then Csr.drop_values a else a), k, tile, sr, ep, seed))
    (fun (a, k, tile_k, semiring, ep, seed) ->
      let b = dense_specials ~seed a.Csr.n_cols k in
      let expect = apply_ref ep (Spmm.run ~semiring ?tile_k a b) in
      with_pools (fun pool ->
          dense_equal expect (Spmm.run ~semiring ?pool ?tile_k ~epilogue:ep a b)))

let test_epilogue_dimension_check () =
  let a = Dense.random 4 3 and b = Dense.random 3 5 in
  let bad = [ Dense.Scale_rows [| 1.; 2. |] ] in
  List.iter
    (fun (what, f) ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (what ^ " accepted a short row scale"))
    [ ("matmul", fun () -> ignore (Dense.matmul ~epilogue:bad a b));
      ( "Spmm.run",
        fun () ->
          ignore
            (Spmm.run ~epilogue:bad
               (Csr.make ~n_rows:4 ~n_cols:3 ~row_ptr:[| 0; 0; 0; 0; 0 |] ~col_idx:[||]
                  ~values:None)
               b) ) ]

(* ---- the executor's fusion rule ---- *)

let drop_engine ?obs () =
  Engine.create_exn ?obs { Engine.default_config with keep_intermediates = false }

let step idx prim args = { Plan.idx; prim; args; phase = Plan.Per_iteration }
let gemm = Primitive.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.Kout }
let bcast = Primitive.Row_broadcast { k = Dim.Kout }
let relu = Primitive.Dense_map { kind = Matrix_ir.Relu; m = Dim.N; k = Dim.Kout }
let degree = Primitive.Degree { binned = false; power = Primitive.Inv_sqrt }

let small_setup () =
  let graph = G.Generators.erdos_renyi ~seed:9 ~n:40 ~avg_degree:4. () in
  let n = G.Graph.n_nodes graph in
  let bindings =
    [ ("H", Executor.Vdense (Dense.random ~seed:1 ~scale:2. n 6));
      ("W", Executor.Vdense (Dense.random ~seed:2 ~scale:2. 6 5)) ]
  in
  (graph, bindings)

(* Runs [plan] on a drop engine with a live trace; returns the report and
   each step kind's span count. *)
let traced_drop ?(iterations = 1) ~graph ~bindings plan =
  let obs = Obs.create ~trace:true ~metrics:false ~costmon:false ~journal:false () in
  let r =
    Executor.exec_iterations ~engine:(drop_engine ~obs ()) ~timing:Executor.Measure ~graph
      ~bindings ~iterations plan
  in
  let spans name =
    match obs.Obs.trace with
    | None -> 0
    | Some t ->
        List.fold_left (fun acc (s, c, _) -> if s = name then acc + c else acc) 0
          (Obs.Trace.aggregate t)
  in
  (r, spans)

let keep_output ?(iterations = 1) ~graph ~bindings plan =
  (Executor.exec_iterations ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph
     ~bindings ~iterations plan)
    .Executor.output

let test_absorbed_steps () =
  let graph, bindings = small_setup () in
  (* GEMM -> RowBcast(D) -> relu: both links fuse into the GEMM *)
  let plan =
    { Plan.steps =
        [ { (step 0 degree [ Plan.Input "__graph__" ]) with Plan.phase = Plan.Setup };
          step 1 gemm [ Plan.Input "H"; Plan.Input "W" ];
          step 2 bcast [ Plan.Computed 0; Plan.Computed 1 ];
          step 3 relu [ Plan.Computed 2 ] ];
      output = Plan.Computed 3;
      name = "fused" }
  in
  let r, spans = traced_drop ~graph ~bindings plan in
  check_true "fused output bitwise the unfused one"
    (Test_engine.value_bits_equal (keep_output ~graph ~bindings plan) r.Executor.output);
  check_int "one entry per plan step" 4 (List.length r.Executor.per_step);
  List.iteri
    (fun i (_, _, t) ->
      if i >= 2 then check_true (Printf.sprintf "absorbed t%d reads 0.0 s" i) (t = 0.))
    r.Executor.per_step;
  check_true "the producer carries the chain's time"
    (let _, _, t = List.nth r.Executor.per_step 1 in
     t > 0.);
  check_int "no row_broadcast span" 0 (spans "row_broadcast");
  check_int "no dense_map span" 0 (spans "dense_map");
  check_int "one gemm span" 1 (spans "gemm");
  (* a keep engine and simulated timing run every step as its own kernel *)
  let sim =
    Executor.exec ~engine:(drop_engine ()) ~timing:(Executor.Simulate Granii_hw.Hw_profile.cpu)
      ~graph ~bindings plan
  in
  List.iter
    (fun (_, _, t) -> check_true "simulated steps are all priced" (t > 0.))
    (List.tl sim.Executor.per_step)

let test_not_fused () =
  let graph, bindings = small_setup () in
  let check ?iterations name plan ~bcast_spans ~map_spans =
    let r, spans = traced_drop ?iterations ~graph ~bindings plan in
    check_true (name ^ ": bitwise the keep run")
      (Test_engine.value_bits_equal (keep_output ?iterations ~graph ~bindings plan)
         r.Executor.output);
    check_int (name ^ ": row_broadcast spans") bcast_spans (spans "row_broadcast");
    check_int (name ^ ": dense_map spans") map_spans (spans "dense_map")
  in
  (* the GEMM output has a second reader: nothing fuses *)
  check "second reader"
    { Plan.steps =
        [ step 0 gemm [ Plan.Input "H"; Plan.Input "W" ];
          step 1 relu [ Plan.Computed 0 ];
          step 2 (Primitive.Dense_add { m = Dim.N; k = Dim.Kout })
            [ Plan.Computed 0; Plan.Computed 1 ] ];
      output = Plan.Computed 2;
      name = "second_reader" }
    ~bcast_spans:0 ~map_spans:1;
  (* the producer is the plan output *)
  check "output producer"
    { Plan.steps =
        [ step 0 gemm [ Plan.Input "H"; Plan.Input "W" ]; step 1 relu [ Plan.Computed 0 ] ];
      output = Plan.Computed 0;
      name = "output_producer" }
    ~bcast_spans:0 ~map_spans:1;
  (* the diagonal is computed after the producer: the broadcast stays, and
     the relu behind it cannot fuse past it *)
  check "late diagonal"
    { Plan.steps =
        [ step 0 gemm [ Plan.Input "H"; Plan.Input "W" ];
          step 1 degree [ Plan.Input "__graph__" ];
          step 2 bcast [ Plan.Computed 1; Plan.Computed 0 ];
          step 3 relu [ Plan.Computed 2 ] ];
      output = Plan.Computed 3;
      name = "late_diagonal" }
    ~bcast_spans:1 ~map_spans:1;
  (* control: the same chain with the diagonal first fuses whole *)
  check "early diagonal"
    { Plan.steps =
        [ step 0 degree [ Plan.Input "__graph__" ];
          step 1 gemm [ Plan.Input "H"; Plan.Input "W" ];
          step 2 bcast [ Plan.Computed 0; Plan.Computed 1 ];
          step 3 relu [ Plan.Computed 2 ] ];
      output = Plan.Computed 3;
      name = "early_diagonal" }
    ~bcast_spans:0 ~map_spans:0;
  (* a setup-phase producer runs once; its per-iteration reader, twice *)
  check ~iterations:2 "phase boundary"
    { Plan.steps =
        [ { (step 0 gemm [ Plan.Input "H"; Plan.Input "W" ]) with Plan.phase = Plan.Setup };
          step 1 relu [ Plan.Computed 0 ] ];
      output = Plan.Computed 1;
      name = "phase_boundary" }
    ~bcast_spans:0 ~map_spans:2;
  (* a row-wise map is no element epilogue *)
  check "log_softmax"
    { Plan.steps =
        [ step 0 gemm [ Plan.Input "H"; Plan.Input "W" ];
          step 1
            (Primitive.Dense_map { kind = Matrix_ir.Log_softmax; m = Dim.N; k = Dim.Kout })
            [ Plan.Computed 0 ] ];
      output = Plan.Computed 1;
      name = "log_softmax" }
    ~bcast_spans:0 ~map_spans:1

(* Every model's every candidate, drop against keep, over two iterations
   (the second reuses the arena the first filled). *)
let test_models_drop_keep () =
  let graph = G.Generators.rmat ~seed:4 ~scale:6 ~edge_factor:5 () in
  let n = G.Graph.n_nodes graph in
  List.iter
    (fun (model : Mp.Mp_ast.model) ->
      let low, compiled = Test_engine.compile_model model in
      let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in = 7; k_out = 6 } in
      let params = Gnn.Layer.init_params ~seed:3 ~env low in
      let bindings = Gnn.Layer.bindings ~graph ~h:(Dense.random ~seed:4 n 7) params in
      List.iter
        (fun (c : Codegen.ccand) ->
          let plan = c.Codegen.plan in
          let run engine =
            (Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph ~bindings
               ~iterations:2 plan)
              .Executor.output
          in
          check_true
            (Printf.sprintf "%s %s: drop bitwise keep" model.Mp.Mp_ast.name plan.Plan.name)
            (Test_engine.value_bits_equal (run (Engine.default ())) (run (drop_engine ()))))
        compiled.Codegen.candidates)
    Mp.Mp_models.all

(* A served GCN response (drop engine, fused) against [Serve.oracle]
   (default engine, unfused). *)
let test_served_gcn_oracle () =
  let graph = G.Generators.rmat ~seed:2 ~scale:7 ~edge_factor:6 () in
  let t = Serve.create Serve.default_config in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () ->
      Serve.register_graph t ~name:"g" graph;
      let f = Dense.random ~seed:12 (G.Graph.n_nodes graph) 16 in
      match Serve.submit t ~tenant:"a" ~graph:"g" ~model:"gcn" ~k_out:8 ~features:f with
      | Error r -> Alcotest.fail (Serve.reject_to_string r)
      | Ok ticket ->
          let r = Serve.await t ticket in
          check_true "served GCN bitwise the oracle"
            (Test_engine.value_bits_equal r.Serve.value
               (Serve.oracle t ~graph:"g" ~model:"gcn" ~k_out:8 ~features:f)))

(* D̃^-1 is memoized on the graph and survives drop runs of the plans that
   read it (GraphSAGE's mean aggregation). *)
let test_inv_degree_memo () =
  let graph = G.Generators.rmat ~seed:5 ~scale:6 ~edge_factor:5 () in
  let d = G.Graph.norm_inv graph in
  check_true "two calls, one vector" (G.Graph.norm_inv graph == d);
  let snapshot = Array.copy d in
  check_true "the memo is D^-1"
    (bits_equal d (Vector.pow (-1.) (G.Graph.degrees_tilde graph)));
  let n = G.Graph.n_nodes graph in
  let low, compiled = Test_engine.compile_model Mp.Mp_models.sage in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in = 5; k_out = 4 } in
  let params = Gnn.Layer.init_params ~seed:1 ~env low in
  let bindings = Gnn.Layer.bindings ~graph ~h:(Dense.random ~seed:6 n 5) params in
  let reads_inv (p : Plan.t) =
    List.exists
      (fun (s : Plan.step) ->
        match s.Plan.prim with
        | Primitive.Degree { power = Primitive.Inv; _ } -> true
        | _ -> false)
      p.Plan.steps
  in
  let plans = List.filter reads_inv (List.map (fun c -> c.Codegen.plan) compiled.Codegen.candidates) in
  check_true "some candidate reads D^-1" (plans <> []);
  List.iter
    (fun plan ->
      let run engine =
        (Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph ~bindings ~iterations:3
           plan)
          .Executor.output
      in
      let reference = run (Engine.default ()) in
      let engine = drop_engine () in
      let a = run engine and b = run engine in
      check_true (plan.Plan.name ^ ": drop runs bitwise the keep run")
        (Test_engine.value_bits_equal reference a && Test_engine.value_bits_equal reference b);
      check_true (plan.Plan.name ^ ": the memo is the same vector, unchanged")
        (G.Graph.norm_inv graph == d && bits_equal d snapshot))
    plans

let suite =
  [ test_relu_select;
    test_edge_score_select;
    test_map_vjp_select;
    test_edge_score_sums_select;
    test_gemm_epilogue;
    test_spmm_epilogue;
    Alcotest.test_case "epilogue row scale is checked" `Quick test_epilogue_dimension_check;
    Alcotest.test_case "absorbed steps read 0.0 s and emit no span" `Quick test_absorbed_steps;
    Alcotest.test_case "unfusable chains run unfused" `Quick test_not_fused;
    Alcotest.test_case "every model x candidate: drop bitwise keep" `Quick
      test_models_drop_keep;
    Alcotest.test_case "served GCN bitwise Serve.oracle" `Quick test_served_gcn_oracle;
    Alcotest.test_case "D^-1 memo survives intermediates=drop" `Quick test_inv_degree_memo ]
