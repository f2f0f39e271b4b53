(* The memory system: workspace arena semantics and retention, liveness
   analysis, bitwise equality of arena-backed execution against the heap
   reference ([Test_util.heap_exec]), and the ground-truth selection
   sweep. *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module Vector = Granii_tensor.Vector
module Workspace = Granii_tensor.Workspace
module Csr = Granii_sparse.Csr
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn
module Obs = Granii_obs.Obs

(* ---- helpers ---- *)

let small_graph ?(seed = 3) ?(n = 60) () =
  G.Generators.erdos_renyi ~seed ~n ~avg_degree:5. ()

let compile_model (m : Mp.Mp_ast.model) =
  let low = Mp.Lower.lower m in
  let compiled, _ =
    Granii.compile ~name:m.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      low.Mp.Lower.ir
  in
  (low, compiled)

let setup_bindings ?(seed = 11) ~k_in low graph =
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out = 7 } in
  let params = Gnn.Layer.init_params ~seed ~env low in
  let h = Dense.random ~seed:(seed + 1) n k_in in
  (env, Gnn.Layer.bindings ~graph ~h params)

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

(* Strict bitwise equality — workspace execution must not change a single
   ulp, and must preserve even the signs of zeros. *)
let value_bits_equal (a : Executor.value) (b : Executor.value) =
  match (a, b) with
  | Executor.Vdense x, Executor.Vdense y ->
      x.Dense.rows = y.Dense.rows && x.Dense.cols = y.Dense.cols
      && bits_equal x.Dense.data y.Dense.data
  | Executor.Vdiag x, Executor.Vdiag y -> bits_equal x y
  | Executor.Vsparse x, Executor.Vsparse y -> (
      x.Csr.row_ptr = y.Csr.row_ptr
      && x.Csr.col_idx = y.Csr.col_idx
      &&
      match (x.Csr.values, y.Csr.values) with
      | None, None -> true
      | Some v, Some w -> bits_equal v w
      | _ -> false)
  | _ -> false

let timing = Executor.Simulate Granii_hw.Hw_profile.a100

(* ---- workspace unit tests ---- *)

let test_workspace_reuse () =
  let ws = Workspace.create () in
  let some = Some ws in
  let a = Workspace.alloc some 100 in
  check_true "alloc zero-fills" (Array.for_all (( = ) 0.) a);
  a.(0) <- 42.;
  Workspace.give_back some a;
  let b = Workspace.alloc some 100 in
  check_true "same buffer reused after give_back" (a == b);
  check_true "reused buffer zero-filled again" (b.(0) = 0.);
  let c = Workspace.alloc_uninit some 100 in
  check_true "distinct buffer while first is issued" (not (c == b));
  Workspace.reclaim ws;
  let d = Workspace.alloc_uninit some 100 in
  let e = Workspace.alloc_uninit some 100 in
  check_true "reclaim returns every issued buffer"
    ((d == b || d == c) && (e == b || e == c) && not (d == e));
  let s = Workspace.stats ws in
  check_int "issued tracked" 2 s.Workspace.issued;
  check_int "issued words tracked" 200 s.Workspace.issued_words

let test_workspace_exact_classes () =
  let ws = Workspace.create () in
  let some = Some ws in
  let a = Workspace.alloc_uninit some 64 in
  Workspace.give_back some a;
  let b = Workspace.alloc_uninit some 65 in
  check_true "a 65-word ask never returns a 64-word buffer" (not (a == b));
  check_int "65-word buffer has exact length" 65 (Array.length b)

let test_workspace_foreign_buffer () =
  let ws = Workspace.create () in
  let some = Some ws in
  let foreign = Array.make 32 1. in
  Workspace.give_back some foreign;
  let a = Workspace.alloc_uninit some 32 in
  check_true "give_back is a no-op on buffers the ws did not issue"
    (not (a == foreign));
  (* None workspace: plain allocation, give_back is a no-op *)
  let plain = Workspace.alloc None 8 in
  Workspace.give_back None plain;
  check_true "None path allocates fresh zeroed arrays"
    (Array.for_all (( = ) 0.) plain)

(* Retention: a reclaim drops every class no alloc touched since the
   previous one, and [held_words] counts the dropped buffers out. *)
let test_workspace_retention () =
  let ws = Workspace.create () in
  let some = Some ws in
  let held () = (Workspace.stats ws).Workspace.held_words in
  ignore (Workspace.alloc_uninit some 100);
  ignore (Workspace.alloc_uninit some 200);
  Workspace.reclaim ws;
  check_int "both classes touched: both kept" 300 (held ());
  ignore (Workspace.alloc_uninit some 100);
  Workspace.reclaim ws;
  check_int "the untouched 200-word class is dropped" 100 (held ());
  Workspace.reclaim ws;
  check_int "a reclaim with no alloc drops everything" 0 (held ());
  let a = Workspace.alloc some 64 in
  Workspace.give_back some a;
  check_true "a given-back buffer is reused in the same run"
    (Workspace.alloc some 64 == a);
  Workspace.reclaim ws;
  check_int "a class drawn since the last reclaim is kept" 64 (held ())

(* Driven through executor runs on graphs of different sizes, an arena holds
   exactly what one run on the last graph leaves in a fresh arena. *)
let test_workspace_holds_last_run () =
  let low, compiled = compile_model Mp.Mp_models.gcn in
  let plan = (List.hd compiled.Codegen.candidates).Codegen.plan in
  let run ws graph =
    let _, bindings = setup_bindings ~k_in:9 low graph in
    ignore
      (Executor.exec
         ~engine:(Engine.create_exn ~workspace:ws Engine.default_config)
         ~timing ~graph ~bindings plan);
    Workspace.reclaim ws;
    Workspace.stats ws
  in
  let graphs = List.map (fun n -> small_graph ~n ()) [ 90; 60; 30 ] in
  let ws = Workspace.create () in
  let last = List.fold_left (fun _ g -> run ws g) (Workspace.stats ws) graphs in
  let fresh = run (Workspace.create ()) (List.nth graphs 2) in
  check_true "the last run drew from the arena" (fresh.Workspace.held_words > 0);
  check_int "held words are exactly one run on the last graph"
    fresh.Workspace.held_words last.Workspace.held_words;
  check_int "nothing stays issued after a reclaim" 0 last.Workspace.issued_words

let test_workspace_alloc_fill () =
  let ws = Workspace.create () in
  let some = Some ws in
  let a = Workspace.alloc_fill some 3.5 10 in
  check_true "alloc_fill fills" (Array.for_all (( = ) 3.5) a);
  Workspace.give_back some a;
  let b = Workspace.alloc_fill some (-1.) 10 in
  check_true "refilled on reuse" (b == a && Array.for_all (( = ) (-1.)) b)

(* ---- liveness unit tests ---- *)

let test_liveness_gcn () =
  let _, compiled = compile_model Mp.Mp_models.gcn in
  List.iter
    (fun (c : Codegen.ccand) ->
      let plan = c.Codegen.plan in
      let l = Liveness.analyze plan in
      let n = List.length plan.Plan.steps in
      (match Liveness.output l with
      | Some o ->
          check_true "output index in range" (o >= 0 && o < n);
          check_int "output never dies" max_int (Liveness.last_use l o)
      | None -> Alcotest.fail "computed plan must have a computed output");
      (* every non-output value's last use is a later step (or itself when
         unread), and it appears in exactly that step's dead list *)
      let seen = Array.make n 0 in
      for j = 0 to n - 1 do
        List.iter
          (fun i ->
            seen.(i) <- seen.(i) + 1;
            check_true "dead value's last_use is the freeing step"
              (Liveness.last_use l i = j || (Liveness.last_use l i = -1 && i = j)))
          (Liveness.dead_after l j)
      done;
      let dead_total = Array.fold_left ( + ) 0 seen in
      check_int "every non-output value dies exactly once" (n - 1) dead_total;
      check_true "max_live is positive and bounded"
        (Liveness.max_live l >= 1 && Liveness.max_live l <= n))
    compiled.Codegen.candidates

(* ---- differential: workspace vs allocating execution ---- *)

let test_workspace_bitwise (m : Mp.Mp_ast.model) () =
  let graph = small_graph () in
  let low, compiled = compile_model m in
  let _, bindings = setup_bindings ~k_in:9 low graph in
  let ws = Workspace.create () in
  List.iter
    (fun (c : Codegen.ccand) ->
      let plan = c.Codegen.plan in
      let reference = heap_exec ~graph ~bindings plan in
      let with_ws = Executor.exec
          ~engine:(Engine.create_exn ~workspace:ws Engine.default_config)
          ~timing ~graph ~bindings plan in
      check_true
        (Printf.sprintf "%s: workspace output bitwise equal" plan.Plan.name)
        (value_bits_equal reference with_ws.Executor.output);
      (* liveness recycling drops intermediates but must not change the
         output *)
      let recycled =
        Executor.exec
          ~engine:
            (Engine.create_exn ~workspace:ws
               { Engine.default_config with keep_intermediates = false })
          ~timing ~graph ~bindings plan
      in
      check_true
        (Printf.sprintf "%s: recycled output bitwise equal" plan.Plan.name)
        (value_bits_equal reference recycled.Executor.output);
      check_true "recycling drops intermediates"
        (recycled.Executor.intermediates = []);
      (* steady-state driver, fresh and warm arena *)
      let iterated =
        Executor.exec_iterations
          ~engine:(Engine.create_exn ~workspace:ws Engine.default_config)
          ~timing ~graph ~bindings ~iterations:3 plan
      in
      check_true
        (Printf.sprintf "%s: exec_iterations output bitwise equal" plan.Plan.name)
        (value_bits_equal reference iterated.Executor.output))
    compiled.Codegen.candidates

let test_iterations_match_heap () =
  let graph = small_graph () in
  let low, compiled = compile_model Mp.Mp_models.gcn in
  let _, bindings = setup_bindings ~k_in:9 low graph in
  let c = List.hd compiled.Codegen.candidates in
  let reference = heap_exec ~graph ~bindings c.Codegen.plan in
  let iterated =
    Executor.exec_iterations ~engine:(Engine.default ()) ~timing ~graph
      ~bindings ~iterations:2 c.Codegen.plan
  in
  check_true "exec_iterations on a default engine matches the heap reference"
    (value_bits_equal reference iterated.Executor.output);
  check_true "iterations must be positive"
    (try
       ignore
         (Executor.exec_iterations ~engine:(Engine.default ()) ~timing ~graph
            ~bindings ~iterations:0 c.Codegen.plan);
       false
     with Invalid_argument _ -> true)

(* Liveness recycling in the steady-state driver: under
   intermediates=drop a three-iteration run keeps every output
   bit and ends with a smaller arena than the same run keeping its
   intermediates — buffers die at their last reader inside each iteration,
   while setup values survive until the last one. *)
let test_iterations_recycle () =
  let graph = small_graph () in
  let arena_words keep_intermediates plan bindings =
    let ws = Workspace.create () in
    let r =
      Executor.exec_iterations
        ~engine:
          (Engine.create_exn ~workspace:ws
             { Engine.default_config with keep_intermediates })
        ~timing ~graph ~bindings ~iterations:3 plan
    in
    let s = Workspace.stats ws in
    (r, s.Workspace.held_words + s.Workspace.issued_words)
  in
  List.iter
    (fun (m : Mp.Mp_ast.model) ->
      let low, compiled = compile_model m in
      let _, bindings = setup_bindings ~k_in:9 low graph in
      let name = m.Mp.Mp_ast.name in
      let dropped_total = ref 0 and kept_total = ref 0 in
      List.iter
        (fun (c : Codegen.ccand) ->
          let plan = c.Codegen.plan in
          let reference = heap_exec ~graph ~bindings plan in
          let dropped, dropped_words = arena_words false plan bindings in
          let _, kept_words = arena_words true plan bindings in
          check_true
            (Printf.sprintf "%s/%s: drop x3 output bitwise" name plan.Plan.name)
            (value_bits_equal reference dropped.Executor.output);
          check_true
            (Printf.sprintf "%s/%s: drop x3 never holds more arena words"
               name plan.Plan.name)
            (dropped_words <= kept_words);
          dropped_total := !dropped_total + dropped_words;
          kept_total := !kept_total + kept_words)
        compiled.Codegen.candidates;
      (* a candidate whose values all differ in size has nothing to reuse;
         across a model's candidates recycling must show *)
      check_true
        (Printf.sprintf "%s: drop x3 holds fewer arena words (%d < %d)" name
           !dropped_total !kept_total)
        (!dropped_total < !kept_total))
    [ Mp.Mp_models.gcn; Mp.Mp_models.gat; Mp.Mp_models.gin ]

(* A reused buffer must never leak one run's data into the next: execute
   with two different inputs alternately on one arena and check each result
   against the allocating path. *)
let test_no_stale_aliasing () =
  let graph = small_graph ~seed:7 () in
  let low, compiled = compile_model Mp.Mp_models.gcn in
  let _, bindings1 = setup_bindings ~seed:11 ~k_in:9 low graph in
  let _, bindings2 = setup_bindings ~seed:23 ~k_in:9 low graph in
  let ws = Workspace.create () in
  let c = List.hd compiled.Codegen.candidates in
  let plan = c.Codegen.plan in
  let ref1 = heap_exec ~graph ~bindings:bindings1 plan in
  let ref2 = heap_exec ~graph ~bindings:bindings2 plan in
  for _ = 1 to 3 do
    let ews () = Engine.create_exn ~workspace:ws Engine.default_config in
    let r1 =
      Executor.exec ~engine:(ews ()) ~timing ~graph ~bindings:bindings1 plan
    in
    check_true "input 1 result uncontaminated"
      (value_bits_equal ref1 r1.Executor.output);
    let r2 =
      Executor.exec ~engine:(ews ()) ~timing ~graph ~bindings:bindings2 plan
    in
    check_true "input 2 result uncontaminated"
      (value_bits_equal ref2 r2.Executor.output)
  done;
  let s = Workspace.stats ws in
  check_true "arena was actually reused (hits observed)" (s.Workspace.hits > 0)

(* The previous run's intermediates physically live in the arena: the next
   run on the same workspace recycles them. This documents the invalidation
   contract (copy any intermediate you keep); the output is the caller's
   own heap copy and never aliases the arena. *)
let test_reclaim_invalidates () =
  let graph = small_graph () in
  let low, compiled = compile_model Mp.Mp_models.gcn in
  let _, bindings = setup_bindings ~k_in:9 low graph in
  let ws = Workspace.create () in
  let c = List.hd compiled.Codegen.candidates in
  let ews () = Engine.create_exn ~workspace:ws Engine.default_config in
  let backing (r : Executor.report) =
    List.concat_map (fun (_, v) -> Dispatch.backing_arrays v) r.Executor.intermediates
  in
  let r1 = Executor.exec ~engine:(ews ()) ~timing ~graph ~bindings c.Codegen.plan in
  let r2 = Executor.exec ~engine:(ews ()) ~timing ~graph ~bindings c.Codegen.plan in
  check_true "second run reuses the first run's intermediate buffers"
    (List.exists (fun a -> List.exists (( == ) a) (backing r1)) (backing r2));
  check_true "the outputs are distinct heap copies"
    (List.for_all
       (fun a -> not (List.exists (( == ) a) (Dispatch.backing_arrays r2.Executor.output)))
       (Dispatch.backing_arrays r1.Executor.output))

(* ---- ground-truth selection sweep ---- *)

(* Every scenario-compatible candidate is executed and ranked, and with a
   cost monitor on the sink every step of every candidate reports one
   (predicted, measured) pair: nothing is served without being timed. *)
let test_selector_measure () =
  let graph = small_graph () in
  let low, compiled = compile_model Mp.Mp_models.gcn in
  let env, bindings = setup_bindings ~k_in:9 low graph in
  let cands =
    Codegen.for_scenario compiled
      (Selector.scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out)
  in
  let ranked =
    Selector.measure ~timing ~graph ~bindings ~env ~iterations:100 compiled
  in
  check_int "one entry per scenario-compatible candidate"
    (List.length cands) (List.length ranked);
  let costs = List.map snd ranked in
  check_true "sorted cheapest first"
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length costs - 1) costs)
       (List.tl costs));
  let obs = Obs.create ~trace:false ~metrics:false ~journal:false () in
  let measured =
    Selector.measure ~obs ~timing:Executor.Measure ~graph ~bindings ~env
      ~iterations:100 compiled
  in
  check_int "measured sweep: one entry per candidate" (List.length cands)
    (List.length measured);
  let cm = Option.get obs.Obs.costmon in
  let pairs =
    List.fold_left
      (fun acc p -> acc + List.length (Obs.Cost_monitor.series_pairs cm p))
      0 (Obs.Cost_monitor.prims cm)
  in
  let steps =
    List.fold_left
      (fun acc (c : Codegen.ccand) -> acc + List.length c.Codegen.plan.Plan.steps)
      0 cands
  in
  check_int "one cost pair per step of every candidate" steps pairs

(* ---- dense kernel paths exercised with a workspace ---- *)

let test_tiled_gemm_bitwise () =
  (* every [m mod mr] x [n mod nr] remainder of the 2x4 tile, the fallback
     shapes ([k] < 8, [n] < nr), column-block splits ([k] large enough that
     the panel holds fewer than [n] columns), and shapes straddling the
     blocking threshold; each through the plain, workspace and 2-domain
     pooled paths. The narrow shapes (n in 1..3, including k < 8 and
     products big enough to have been blocked) take an A with exact zeros,
     which the untiled kernel skips, and also run on a workspace whose
     recycled output buffer was NaN-filled. *)
  let remainders =
    List.concat_map (fun m -> List.map (fun n -> (m, 33, n)) [ 64; 65; 66; 67 ]) [ 64; 65 ]
  in
  let fallbacks = [ (5, 7, 3); (40, 7, 40); (40, 40, 3); (300, 300, 1) ] in
  let column_splits = [ (9, 1024, 70); (7, 2000, 37) ] in
  let straddling = [ (37, 41, 53); (64, 64, 64); (130, 17, 64); (96, 200, 99) ] in
  (* tail columns ([n mod nr] > 0, or [n] just above a multiple of nr) on
     blocked shapes, even and odd [m], including train's logits GEMM and
     its weight gradient *)
  let tails =
    List.concat_map
      (fun (m, k) -> List.map (fun n -> (m, k, n)) [ 5; 6; 7; 9; 17 ])
      [ (300, 33); (301, 33); (1000, 8); (1001, 8); (32, 2478); (33, 2478) ]
    @ [ (2478, 32, 5) ]
  in
  let narrow =
    List.concat_map
      (fun n -> List.map (fun (m, k) -> (m, k, n)) [ (1, 1); (5, 3); (37, 7); (64, 33); (130, 300) ])
      [ 1; 2; 3 ]
  in
  let with_zeros (a : Dense.t) =
    Dense.of_flat ~rows:a.Dense.rows ~cols:a.Dense.cols
      (Array.mapi (fun i x -> if i mod 3 = 1 then 0. else x) a.Dense.data)
  in
  let pool = Granii_tensor.Parallel.create ~threads:2 () in
  Fun.protect
    ~finally:(fun () -> Granii_tensor.Parallel.shutdown pool)
    (fun () ->
      List.iter
        (fun (m, k, n) ->
          let is_narrow = n < 4 in
          let a = Dense.random ~seed:(m + k) m k and b = Dense.random ~seed:n k n in
          let a = if is_narrow then with_zeros a else a in
          let plain = Dense.matmul_unblocked a b in
          let check path (c : Dense.t) =
            check_true
              (Printf.sprintf "gemm %dx%dx%d %s = untiled bitwise" m k n path)
              (c.Dense.rows = m && c.Dense.cols = n
              && bits_equal plain.Dense.data c.Dense.data)
          in
          check "tiled" (Dense.matmul a b);
          check "ws path" (Dense.matmul ~ws:(Workspace.create ()) a b);
          check "pooled" (Dense.matmul ~pool a b);
          if is_narrow then begin
            let ws = Some (Workspace.create ()) in
            let buf = Workspace.alloc_uninit ws (m * n) in
            Array.fill buf 0 (m * n) Float.nan;
            Workspace.give_back ws buf;
            let c = Dense.matmul ?ws ~pool a b in
            check_true
              (Printf.sprintf "gemm %dx%dx%d wrote the recycled buffer" m k n)
              (c.Dense.data == buf);
            check "recycled NaN ws, pooled" c
          end)
        (remainders @ fallbacks @ column_splits @ straddling @ tails @ narrow))

(* Minor words one call allocates, on a warm workspace: run it once to warm
   the size class, then measure a second run. *)
let call_words ws f =
  Workspace.give_back ws (f ());
  let before = Gc.minor_words () in
  let out = f () in
  let words = Gc.minor_words () -. before in
  Workspace.give_back ws out;
  words

let test_register_kernels_allocation () =
  (* The CSR SpMM's strip accumulators and the narrow GEMM's row-dot
     accumulators are local float refs that ocamlopt keeps unboxed; boxed,
     each would allocate per stored entry (per row entry for the GEMM). So a
     call on a warm workspace allocates the same few words on a small graph
     as on one with over ten thousand stored entries. *)
  let graph_words graph =
    let a = G.Graph.with_self_loops graph in
    let aw = Granii_sparse.Sparse_ops.scale_rows (G.Graph.norm_inv_sqrt graph) a in
    let au = Csr.drop_values a in
    let n = G.Graph.n_nodes graph in
    let ws = Some (Workspace.create ()) in
    let spmm =
      List.concat_map
        (fun k ->
          let h = Dense.random ~seed:k n k in
          List.map
            (fun m -> call_words ws (fun () -> (Granii_sparse.Spmm.run ?ws m h).Dense.data))
            [ aw; au ])
        [ 16; 13 ]
    in
    let x = Dense.random ~seed:5 n 64 and w = Dense.random ~seed:6 64 1 in
    (Csr.nnz a, spmm @ [ call_words ws (fun () -> (Dense.matmul ?ws x w).Dense.data) ])
  in
  let small_nnz, small = graph_words (G.Generators.erdos_renyi ~seed:4 ~n:200 ~avg_degree:4. ()) in
  let big_nnz, big = graph_words (G.Generators.erdos_renyi ~seed:4 ~n:2000 ~avg_degree:8. ()) in
  check_true (Printf.sprintf "big graph has >= 10k stored entries (%d)" big_nnz) (big_nnz >= 10_000);
  List.iter2
    (fun s b ->
      check_true
        (Printf.sprintf "%.0f words at nnz %d = %.0f words at nnz %d, and few" s small_nnz b
           big_nnz)
        (s = b && b < 256.))
    small big

let test_train_path_allocation () =
  (* The training path's per-batch kernels allocate a fixed handful of minor
     words per call. Through a closure per element, a transpose would box
     every element, and the featurizer every degree it sorts or folds; a
     read-modify-write scratch tile is no allocation, but the GEMM's tail
     columns must not introduce any either. Outputs here are all larger
     than the minor heap's size limit, so they are not counted. *)
  let transpose_words rows =
    let m = Dense.random ~seed:rows rows 32 in
    ignore (Dense.transpose m);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Dense.transpose m));
    Gc.minor_words () -. before
  in
  let gemm_words rows =
    let ws = Some (Workspace.create ()) in
    let x = Dense.random ~seed:1 rows 32 and w = Dense.random ~seed:2 32 5 in
    call_words ws (fun () -> (Dense.matmul ?ws x w).Dense.data)
  in
  List.iter
    (fun (what, words) ->
      let small = words 301 and big = words 3001 in
      check_true
        (Printf.sprintf "%s: %.0f words at 301 rows = %.0f at 3001, and few" what small big)
        (small = big && big < 64.))
    [ ("transpose", transpose_words); ("gemm n=5", gemm_words) ];
  List.iter
    (fun graph ->
      let nnz = G.Graph.n_edges graph in
      ignore (G.Graph_features.extract graph);
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (G.Graph_features.extract graph));
      let words = Gc.minor_words () -. before in
      (* the record, and the degree histogram when it fits the minor heap *)
      check_true
        (Printf.sprintf "featurizing %s (nnz %d) allocates %.0f words" graph.G.Graph.name nnz
           words)
        (nnz >= 10_000 && words < 300.))
    [ G.Generators.erdos_renyi ~seed:4 ~n:2000 ~avg_degree:8. ();
      G.Generators.rmat ~seed:2 ~scale:11 ~edge_factor:8 () ]

let test_tiled_sparse_bitwise () =
  let graph = G.Generators.erdos_renyi ~seed:9 ~n:120 ~avg_degree:6. () in
  let a = G.Graph.with_self_loops graph in
  let aw = Granii_sparse.Sparse_ops.scale_rows (G.Graph.norm_inv_sqrt graph) a in
  let n = G.Graph.n_nodes graph in
  List.iter
    (fun k ->
      let h = Dense.random ~seed:k n k in
      let spmm_ref = Granii_sparse.Spmm.run a h in
      let spmm_tiled = Granii_sparse.Spmm.run ~tile_k:7 a h in
      check_true
        (Printf.sprintf "spmm k=%d tiled bitwise" k)
        (bits_equal spmm_ref.Dense.data spmm_tiled.Dense.data);
      let sddmm_ref = Granii_sparse.Sddmm.dot_rows aw h h in
      let sddmm_tiled = Granii_sparse.Sddmm.dot_rows ~tile_k:7 aw h h in
      check_true
        (Printf.sprintf "sddmm k=%d tiled bitwise" k)
        (match (sddmm_ref.Csr.values, sddmm_tiled.Csr.values) with
        | Some v, Some w -> bits_equal v w
        | _ -> false))
    [ 4; 13; 32 ]

let model_case m =
  Alcotest.test_case
    (Printf.sprintf "%s workspace bitwise" m.Mp.Mp_ast.name)
    `Quick (test_workspace_bitwise m)

let suite =
  [ Alcotest.test_case "workspace reuse & reclaim" `Quick test_workspace_reuse;
    Alcotest.test_case "workspace exact size classes" `Quick test_workspace_exact_classes;
    Alcotest.test_case "workspace foreign buffers" `Quick test_workspace_foreign_buffer;
    Alcotest.test_case "workspace alloc_fill" `Quick test_workspace_alloc_fill;
    Alcotest.test_case "workspace drops untouched classes" `Quick
      test_workspace_retention;
    Alcotest.test_case "workspace holds only the last run's classes" `Quick
      test_workspace_holds_last_run;
    Alcotest.test_case "liveness on GCN candidates" `Quick test_liveness_gcn ]
  @ List.map model_case Mp.Mp_models.all
  @ [ Alcotest.test_case "exec_iterations matches the heap reference" `Quick
        test_iterations_match_heap;
      Alcotest.test_case "exec_iterations recycles under drop" `Quick
        test_iterations_recycle;
      Alcotest.test_case "no stale aliasing across runs" `Quick test_no_stale_aliasing;
      Alcotest.test_case "reclaim invalidates previous intermediates" `Quick
        test_reclaim_invalidates;
      Alcotest.test_case "selector measure sweep" `Quick test_selector_measure;
      Alcotest.test_case "tiled gemm bitwise" `Quick test_tiled_gemm_bitwise;
      Alcotest.test_case "register kernels allocate per call, not per entry" `Quick
        test_register_kernels_allocation;
      Alcotest.test_case "train path kernels allocate per call, not per element" `Quick
        test_train_path_allocation;
      Alcotest.test_case "tiled sparse kernels bitwise" `Quick test_tiled_sparse_bitwise ]
