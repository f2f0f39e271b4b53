(* The [train] workload: [Trainer.train_minibatch] with GCN and the default
   pipelined loader on rmat scale 14 (16,384 nodes, edge factor 16),
   fanouts 10,5, batch 256, 5 classes. Every batch is a fresh sampled
   subgraph run forward and backward, so per-graph work cannot amortize.

   The operation is one epoch: one [train_minibatch] call over every node,
   continuing from the previous epoch's parameters, with its own seed. The
   optimizer is plain SGD, which keeps no state across calls, so each epoch
   is a pure function of (seed, parameters) and can be re-run exactly.

   The traced run replays epochs through a [Loader.Sequential] stream and
   the public calls the trainer makes per batch, timing each layer; it
   reproduces the untraced epoch's batch losses bitwise. *)

open Granii_core
module G = Granii_graph
module Gnn = Granii_gnn
module Mp = Granii_mp
module Dense = Granii_tensor.Dense
module Prng = Granii_tensor.Prng
module L = Ledger

let scale = 14
let k_in = 32
let classes = 5
let fanouts = [ 10; 5 ]
let batch_size = 256
let lr = 0.1
let setup_reps = 31
let checks = 2

type inputs = { graph : G.Graph.t; features : Dense.t; labels : int array }

let inputs seed =
  let graph = G.Generators.rmat ~seed ~scale ~edge_factor:16 () in
  let n = G.Graph.n_nodes graph in
  let rng = Prng.create (seed + 3) in
  let labels = Array.init n (fun _ -> Prng.int rng classes) in
  let features =
    Dense.init n k_in (fun i j ->
        Prng.normal rng +. if j = labels.(i) then 1.5 else 0.)
  in
  { graph; features; labels }

type program = {
  oracle : Cost_oracle.t;
  compiled : Codegen.t;
  params : Gnn.Layer.params;
}

(* The program's set-up: compile GCN, build the oracle, initialize the
   parameters. Each [train_minibatch] call creates its own loader and plan
   cache, so those are inside the timed epoch. *)
let setup ~seed inp =
  let low = Mp.Lower.lower Mp.Mp_models.gcn in
  let compiled, _ =
    Granii.compile ~name:"gcn"
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      low.Mp.Lower.ir
  in
  let n = G.Graph.n_nodes inp.graph in
  let env = { Dim.n; nnz = G.Graph.n_edges inp.graph + n; k_in; k_out = classes } in
  { oracle = Cost_oracle.of_model (Cost_model.analytic Granii_hw.Hw_profile.cpu);
    compiled;
    params = Gnn.Layer.init_params ~seed ~env low }

let epoch prog inp ~mode ~seed params =
  Gnn.Trainer.train_minibatch ~seed ~mode ~fanouts ~epochs:1 ~batch_size
    ~optimizer:(Gnn.Optimizer.sgd ~lr ()) ~oracle:prog.oracle
    ~compiled:prog.compiled ~graph:inp.graph ~features:inp.features
    ~labels:inp.labels ~params ()

type ran = {
  eseed : int;
  before : Gnn.Layer.params;
  history : Gnn.Trainer.minibatch_history;
  wall : float;
}

let params_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (n, x) (m, y) -> n = m && L.bits_equal x.Dense.data y.Dense.data)
       a b

(* One epoch of the trainer's per-batch body, replayed through a
   sequential loader with every layer call in its own span. Returns the
   batch losses. *)
let replay_epoch tr prog inp roof reports (r : ran) =
  let engine = Engine.default () in
  let loader =
    Gnn.Loader.create ~seed:r.eseed ~mode:Gnn.Loader.Sequential ~fanouts
      ~batch_size ~epochs:1 ~graph:inp.graph ~features:inp.features
      ~labels:inp.labels ()
  in
  let cache =
    Plan_cache.create ~metric_prefix:"train.plan_cache" ~capacity:16 ()
  in
  let optimizer = Gnn.Optimizer.sgd ~lr () in
  let losses = Array.make (Gnn.Loader.batches_per_epoch loader) 0. in
  let params = ref r.before in
  let rec go gidx =
    L.set_op tr gidx;
    let next =
      L.span tr "loader.next" (fun () ->
          let b = Gnn.Loader.next loader in
          Option.iter
            (fun (b : Gnn.Loader.batch) ->
              L.record tr "sampling.layered_fanout" b.Gnn.Loader.sample_time;
              L.record tr "featurizer.extract" b.Gnn.Loader.featurize_time)
            b;
          b)
    in
    match next with
    | None -> ()
    | Some b ->
        let sub = b.Gnn.Loader.sample.G.Sampling.subgraph in
        let n_sub = G.Graph.n_nodes sub in
        let env =
          { Dim.n = n_sub; nnz = G.Graph.n_edges sub + n_sub; k_in; k_out = classes }
        in
        let key =
          Plan_cache.key_of
            ~graph_fp:(Plan_cache.bucketed_fingerprint sub)
            ~model:prog.compiled.Codegen.model_name ~k_in ~k_out:classes
            ~hw:(Cost_oracle.name prog.oracle) ~threads:(Engine.threads engine)
            ~locality:(Engine.locality engine)
        in
        let lc =
          L.span tr "plan_cache.find" (fun () ->
              match Plan_cache.find cache key with
              | Some lc -> lc
              | None ->
                  let lc =
                    L.span tr "selector.select" (fun () ->
                        Selector.select_localized ~oracle:prog.oracle
                          ~feats:b.Gnn.Loader.feats ~env ~iterations:1
                          ~configs:[ Engine.locality engine ] prog.compiled)
                  in
                  Plan_cache.add cache key lc;
                  lc)
        in
        let plan = lc.Selector.lchoice.Selector.candidate.Codegen.plan in
        let bindings =
          L.span tr "layer.bindings" (fun () ->
              Gnn.Layer.bindings ~graph:sub ~h:b.Gnn.Loader.features !params)
        in
        let forward =
          L.span tr "executor.exec" (fun () ->
              Executor.exec ~seed:(r.eseed + gidx) ~engine
                ~timing:Executor.Measure ~graph:sub ~bindings plan)
        in
        Roofline.add roof ~threads:1 ~env ~iterations:1 forward.Executor.per_step;
        reports :=
          Executor.(forward.layout_time, forward.setup_time, forward.iteration_time)
          :: !reports;
        let logits =
          match forward.Executor.output with
          | Executor.Vdense d -> d
          | Executor.Vsparse _ | Executor.Vdiag _ -> failwith "train: logits not dense"
        in
        let loss, dlogits =
          L.span tr "loss.softmax_cross_entropy" (fun () ->
              Gnn.Loss.softmax_cross_entropy ~mask:b.Gnn.Loader.mask ~logits
                ~labels:b.Gnn.Loader.labels ())
        in
        let grads =
          L.span tr "autodiff.backward" (fun () ->
              Gnn.Autodiff.backward ~plan ~graph:sub ~bindings ~forward
                ~seed:dlogits)
        in
        losses.(b.Gnn.Loader.index) <- loss;
        params :=
          L.span tr "optimizer.step" (fun () ->
              Gnn.Optimizer.step optimizer !params grads);
        go (gidx + 1)
  in
  Fun.protect ~finally:(fun () -> Gnn.Loader.shutdown loader) (fun () -> go 0);
  losses

let run ~seed ~seconds ~trace ~peaks =
  let inp = inputs seed in
  let setup_s, prog = L.repeat_setup ~reps:setup_reps (fun () -> setup ~seed inp) in
  ignore
    (epoch prog inp ~mode:Gnn.Loader.Pipelined ~seed:((seed * 1000) - 1) prog.params
      : Gnn.Trainer.minibatch_history);
  let g0 = L.gc_mark () in
  let deadline = L.now () +. seconds in
  let failed = ref 0 in
  let rec go e params acc =
    if acc <> [] && L.now () >= deadline then List.rev acc
    else begin
      let eseed = (seed * 1000) + e in
      match
        L.timed (fun () -> epoch prog inp ~mode:Gnn.Loader.Pipelined ~seed:eseed params)
      with
      | history, wall ->
          go (e + 1) history.Gnn.Trainer.final_params
            ({ eseed; before = params; history; wall } :: acc)
      | exception ex ->
          Printf.eprintf "train: epoch %d raised %s\n%!" e (Printexc.to_string ex);
          incr failed;
          List.rev acc
    end
  in
  let ran = go 0 prog.params [] in
  let g1 = L.gc_mark () in
  let n_epochs = List.length ran in
  let walls = List.map (fun r -> r.wall) ran in
  let batches =
    List.fold_left (fun a r -> a + r.history.Gnn.Trainer.n_batches) 0 ran
  in
  (* sampled epochs re-run with a sequential loader, outside timing: losses
     and parameters must be bitwise equal *)
  let pick = Prng.create (seed + 5) in
  let sampled =
    List.sort_uniq compare
      (0 :: List.init (checks - 1) (fun _ -> Prng.int pick (max 1 n_epochs)))
  in
  let compared = ref 0 and mismatches = ref 0 and seq_walls = ref [] in
  List.iter
    (fun i ->
      match List.nth_opt ran i with
      | None -> ()
      | Some r ->
          let h, wall =
            L.timed (fun () ->
                epoch prog inp ~mode:Gnn.Loader.Sequential ~seed:r.eseed r.before)
          in
          seq_walls := wall :: !seq_walls;
          incr compared;
          let p = r.history in
          if
            not
              (L.bits_equal p.Gnn.Trainer.epoch_losses h.Gnn.Trainer.epoch_losses
              && Array.for_all2 L.bits_equal p.Gnn.Trainer.batch_losses
                   h.Gnn.Trainer.batch_losses
              && params_equal p.Gnn.Trainer.final_params h.Gnn.Trainer.final_params)
          then begin
            Printf.eprintf "train: epoch %d differs from the sequential loader\n%!" i;
            incr mismatches
          end)
    sampled;
  let epoch_u = L.median walls in
  let e2e =
    L.m "setup_s" "s" setup_s
    :: L.sequential_e2e
         (List.map
            (fun r ->
              { L.latency = r.wall;
                work = float_of_int r.history.Gnn.Trainer.n_batches })
            ran)
  in
  let layers, tracers =
    if not trace then ([], [])
    else begin
      let tr = L.tracer ~on:true "train.replay" in
      let roof = Roofline.create peaks in
      let reports = ref [] in
      let deadline = L.now () +. (seconds /. 4.) in
      let replayed = ref [] in
      List.iteri
        (fun i r ->
          if i = 0 || L.now () < deadline then begin
            let losses, wall = L.timed (fun () -> replay_epoch tr prog inp roof reports r) in
            replayed := wall :: !replayed;
            incr compared;
            if not (L.bits_equal losses r.history.Gnn.Trainer.batch_losses.(0)) then begin
              Printf.eprintf "train: replay of epoch %d differs from the trainer\n%!" i;
              incr mismatches
            end
          end)
        ran;
      let n_r = float_of_int (List.length !replayed) in
      let agg = L.aggregate tr in
      let sum f = List.fold_left (fun a r -> a +. f r.history) 0. ran in
      let stall = sum (fun h -> h.Gnn.Trainer.stall_time) in
      let hits = sum (fun h -> float_of_int h.Gnn.Trainer.cache_stats.Plan_cache.hits) in
      let lookups =
        sum (fun h ->
            let s = h.Gnn.Trainer.cache_stats in
            float_of_int (s.Plan_cache.hits + s.Plan_cache.misses))
      in
      (* the consumer's critical path in a pipelined epoch: stall plus the
         per-batch layers (sampling and featurization run on the loader
         domain) *)
      let consumer =
        (L.top_level_total tr -. (L.find_agg agg "loader.next").L.total) /. n_r
      in
      let mean_report f = 1000. *. L.mean (List.map f !reports) in
      ( [ L.m "layer.bindings_ms" "ms" (1000. *. L.per_call agg "layer.bindings");
          L.m "executor.exec_ms" "ms" (1000. *. L.per_call agg "executor.exec");
          L.m "plan_cache.hit_ratio" "ratio" (L.ratio hits lookups);
          L.m "selector.select_ms" "ms" (1000. *. L.per_call agg "selector.select");
          L.m "featurizer.extract_ms" "ms"
            (1000. *. L.per_call agg "featurizer.extract");
          L.m "executor.layout_ms" "ms" (mean_report (fun (l, _, _) -> l));
          L.m "executor.setup_ms" "ms" (mean_report (fun (_, s, _) -> s));
          L.m "executor.iter_ms" "ms" (mean_report (fun (_, _, i) -> i));
          L.m "sampling.layered_fanout_ms" "ms"
            (1000. *. L.per_call agg "sampling.layered_fanout");
          L.m "loader.stall_ms" "ms"
            (1000. *. L.ratio stall (float_of_int batches));
          L.m "autodiff.backward_ms" "ms"
            (1000. *. L.per_call agg "autodiff.backward");
          L.m "optimizer.step_ms" "ms" (1000. *. L.per_call agg "optimizer.step");
          L.m "gc.alloc_mb_per_op" "MB"
            (L.ratio (L.alloc_mb g0 g1) (float_of_int n_epochs));
          L.m "gc.major_collections" "count" (float_of_int (g1.L.majors - g0.L.majors));
          L.m "residual_frac" "ratio"
            (L.ratio
               (epoch_u -. (stall /. float_of_int n_epochs) -. consumer)
               epoch_u);
          L.m "trace.overhead_frac" "ratio"
            (let s = L.median !seq_walls in
             L.ratio (L.median !replayed -. s) s) ]
        @ Roofline.metrics roof,
        [ tr ] )
    end
  in
  ( { L.attempted = n_epochs + !failed;
      failed = !failed + !mismatches;
      checked = !compared;
      metrics = e2e @ [ L.m "heap_peak_mb" "MB" (L.heap_peak_mb ()) ] @ layers;
      notes =
        [ ("epochs", float_of_int n_epochs);
          ("batches_per_epoch", L.ratio (float_of_int batches) (float_of_int n_epochs)) ] },
    tracers )
