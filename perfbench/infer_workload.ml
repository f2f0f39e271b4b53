(* The [infer] workload: the paper's inspect -> select -> execute path, per
   input. Each input runs [Featurizer.extract], [Selector.select_localized]
   (joint candidate x layout selection), [Layer.bindings] and
   [Executor.exec_iterations] (measured, a fixed iteration count, kernel
   pool width 2). The nine inputs are {rmat:12:16, grid2d 96x96,
   community_overlap n=8192 groups=64 degree=24} x {GCN 64->64,
   GAT 32->128, GIN 256->32}.

   The operation is one pass over the nine inputs (the suite); throughput
   counts inputs. Inspection and selection are inside the timed path, as
   the paper charges them. *)

open Granii_core
module G = Granii_graph
module Gnn = Granii_gnn
module Mp = Granii_mp
module Dense = Granii_tensor.Dense
module Parallel = Granii_tensor.Parallel
module L = Ledger

let iterations = 5
let threads = 2
let setup_reps = 31

(* GIN's [Sparse_add] re-sorts sparse structure, so a layout may change
   its summation order: its outputs are compared within this relative
   tolerance; every other output bitwise. *)
let gin_rtol = 1e-9

let model_dims = [ ("gcn", 64, 64); ("gat", 32, 128); ("gin", 256, 32) ]

type input = {
  label : string;
  model : string;
  graph : G.Graph.t;
  features : Dense.t;
  env : Dim.env;
}

let inputs seed =
  let graphs =
    [ G.Generators.rmat ~seed ~scale:12 ~edge_factor:16 ();
      G.Generators.grid2d ~seed ~rows:96 ~cols:96 ();
      G.Generators.community_overlap ~seed ~n:8192 ~groups:64 ~degree:24 () ]
  in
  Array.of_list
    (List.concat
       (List.mapi
          (fun gi graph ->
            List.mapi
              (fun mi (model, k_in, k_out) ->
                let n = G.Graph.n_nodes graph in
                { label = Printf.sprintf "%s/%s" graph.G.Graph.name model;
                  model;
                  graph;
                  features =
                    Dense.random ~seed:((seed * 977) + (3 * gi) + mi) n k_in;
                  env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out } })
              model_dims)
          graphs))

type program = {
  oracle : Cost_oracle.t;
  pool : Parallel.t;
  compiled : (string * Codegen.t) list;
  params : Gnn.Layer.params array;  (** per input *)
}

(* The program's set-up: compile the three models, build the oracle and
   the kernel pool, initialize every input's parameters. *)
let setup ~seed inputs =
  let oracle = Cost_oracle.of_model (Cost_model.analytic Granii_hw.Hw_profile.cpu) in
  let lowered =
    List.map
      (fun (model, _, _) ->
        let low = Mp.Lower.lower (Mp.Mp_models.find model) in
        let compiled, _ =
          Granii.compile ~name:model
            ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
            low.Mp.Lower.ir
        in
        (model, (low, compiled)))
      model_dims
  in
  { oracle;
    pool = Parallel.create ~threads ();
    compiled = List.map (fun (m, (_, c)) -> (m, c)) lowered;
    params =
      Array.map
        (fun inp ->
          Gnn.Layer.init_params ~seed ~env:inp.env
            (fst (List.assoc inp.model lowered)))
        inputs }

(* What an input's run leaves for the checks and the roofline; the
   report's intermediates are dropped with it. *)
type result = {
  plan : Plan.t;
  bindings : (string * Executor.value) list;
  output : Executor.value;
  per_step : (Primitive.t * Plan.phase * float) list;
  times : float * float * float;  (** layout, setup, mean iteration *)
}

let run_input ?(tr = L.off) prog i inp =
  let feats =
    L.span tr "featurizer.extract" (fun () -> Featurizer.extract ~threads inp.graph)
  in
  let lc =
    L.span tr "selector.select" (fun () ->
        Selector.select_localized ~oracle:prog.oracle ~feats ~env:inp.env
          ~iterations
          (List.assoc inp.model prog.compiled))
  in
  let plan = lc.Selector.lchoice.Selector.candidate.Codegen.plan in
  let bindings =
    L.span tr "layer.bindings" (fun () ->
        Gnn.Layer.bindings ~graph:inp.graph ~h:inp.features prog.params.(i))
  in
  let r =
    L.span tr "executor.exec" (fun () ->
        let engine =
          Engine.create_exn ~pool:prog.pool
            { Engine.default_config with threads; locality = lc.Selector.config }
        in
        Executor.exec_iterations ~engine ~timing:Executor.Measure
          ~graph:inp.graph ~bindings ~iterations plan)
  in
  { plan;
    bindings;
    output = r.Executor.output;
    per_step = r.Executor.per_step;
    times = Executor.(r.layout_time, r.setup_time, r.iteration_time) }

(* One suite; an input that raises counts as failed. *)
let suite ?tr prog inputs =
  let failed = ref 0 in
  let results =
    Array.mapi
      (fun i inp ->
        Option.iter (fun tr -> L.set_op tr i) tr;
        try Some (run_input ?tr prog i inp)
        with e ->
          Printf.eprintf "infer: %s raised %s\n%!" inp.label (Printexc.to_string e);
          incr failed;
          None)
      inputs
  in
  (results, !failed)

(* Suites until [seconds] have passed: their timings, the first suite's
   results and the failure count. *)
let timed_suites ?tr prog inputs ~seconds =
  let deadline = L.now () +. seconds in
  let rec go acc first failed =
    if acc <> [] && L.now () >= deadline then (List.rev acc, first, failed)
    else begin
      let (results, f), dt = L.timed (fun () -> suite ?tr prog inputs) in
      let op = { L.latency = dt; work = float_of_int (Array.length inputs) } in
      go (op :: acc) (if first = None then Some results else first) (failed + f)
    end
  in
  match go [] None 0 with
  | times, Some first, failed -> (times, first, failed)
  | _, None, _ -> assert false

let output_matches model out reference =
  match (out, reference) with
  | Executor.Vdense x, Executor.Vdense y
    when x.Dense.rows = y.Dense.rows && x.Dense.cols = y.Dense.cols ->
      if model = "gin" then
        Dense.max_abs_diff x y
        <= gin_rtol *. Float.max 1. (Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0. y.Dense.data)
      else L.bits_equal x.Dense.data y.Dense.data
  | _ -> false

let run ~seed ~seconds ~trace ~peaks =
  let inputs = inputs seed in
  let setup_s, prog =
    L.repeat_setup ~reps:setup_reps
      ~release:(fun p -> Parallel.shutdown p.pool)
      (fun () -> setup ~seed inputs)
  in
  let n_in = Array.length inputs in
  ignore (suite prog inputs : result option array * int);
  let g0 = L.gc_mark () in
  let ops, first, failed = timed_suites prog inputs ~seconds in
  let times = List.map (fun o -> o.L.latency) ops in
  let g1 = L.gc_mark () in
  let n_suites = List.length times in
  (* each output of the first suite against the same plan under the
     default engine (sequential, default layout), outside timing *)
  let compared = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some r ->
          incr compared;
          let reference =
            Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure
              ~graph:inputs.(i).graph ~bindings:r.bindings r.plan
          in
          if not (output_matches inputs.(i).model r.output reference.Executor.output)
          then begin
            Printf.eprintf "infer: %s output differs from the default engine\n%!"
              inputs.(i).label;
            incr mismatches
          end)
    first;
  let suite_u = L.median times in
  let e2e = L.m "setup_s" "s" setup_s :: L.sequential_e2e ops
  in
  let layers, tracers =
    if not trace then ([], [])
    else begin
      let tr = L.tracer ~on:true "infer.suite" in
      let traced, results, _ = timed_suites ~tr prog inputs ~seconds:(seconds /. 4.) in
      let traced = List.map (fun o -> o.L.latency) traced in
      let n_t = float_of_int (List.length traced) in
      let agg = L.aggregate tr in
      (* executor reports of the first traced suite *)
      let roof = Roofline.create peaks in
      let reports =
        Array.to_list
          (Array.mapi
             (fun i r ->
               Option.map
                 (fun r ->
                   Roofline.add roof ~threads ~env:inputs.(i).env ~iterations
                     r.per_step;
                   r.times)
                 r)
             results)
        |> List.filter_map Fun.id
      in
      let mean_report f = 1000. *. L.mean (List.map f reports) in
      ( [ L.m "layer.bindings_ms" "ms" (1000. *. L.per_call agg "layer.bindings");
          L.m "executor.exec_ms" "ms" (1000. *. L.per_call agg "executor.exec");
          L.m "selector.select_ms" "ms" (1000. *. L.per_call agg "selector.select");
          L.m "featurizer.extract_ms" "ms"
            (1000. *. L.per_call agg "featurizer.extract");
          L.m "executor.layout_ms" "ms" (mean_report (fun (l, _, _) -> l));
          L.m "executor.setup_ms" "ms" (mean_report (fun (_, s, _) -> s));
          L.m "executor.iter_ms" "ms" (mean_report (fun (_, _, i) -> i));
          L.m "gc.alloc_mb_per_op" "MB"
            (L.ratio (L.alloc_mb g0 g1) (float_of_int n_suites));
          L.m "gc.major_collections" "count" (float_of_int (g1.L.majors - g0.L.majors));
          L.m "residual_frac" "ratio"
            (L.ratio (suite_u -. (L.top_level_total tr /. n_t)) suite_u);
          L.m "trace.overhead_frac" "ratio"
            (L.ratio (L.median traced -. suite_u) suite_u) ]
        @ Roofline.metrics roof,
        [ tr ] )
    end
  in
  Parallel.shutdown prog.pool;
  ( { L.attempted = n_suites * n_in;
      failed = failed + !mismatches;
      checked = !compared;
      metrics = e2e @ [ L.m "heap_peak_mb" "MB" (L.heap_peak_mb ()) ] @ layers;
      notes = [ ("suites", float_of_int n_suites); ("iterations", float_of_int iterations) ] },
    tracers )
