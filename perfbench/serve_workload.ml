(* The [serve] workload: a threaded [Serve] server with one worker domain
   and the production sink (journal + metrics, no trace), holding one
   registered rmat:12:16 graph. One generator thread drives a closed loop
   of 4 logical clients over 2 tenants: each client submits its next
   request when its previous one completes, and the generator blocks in
   [Serve.await] on the oldest outstanding request instead of spinning.
   A seeded draw makes 3 of 4 requests GCN and 1 of 4 GAT, K 32 -> 16.

   The operation is a request, timed on the benchmark clock from the
   submit call to the observed completion.

   The traced run replays the untraced run's jobs, one per (model, width)
   as the server executed them, through the same public calls the server
   makes ([Layer.bindings], then [Engine.create_exn] + [Executor.exec] for
   a single request or [Batch.exec_batch] for a widened one), and runs the
   same loop against a server with [Obs.disabled] to price the sink. *)

open Granii_core
module G = Granii_graph
module Gnn = Granii_gnn
module Mp = Granii_mp
module Serve = Granii_serve.Serve
module Batch = Granii_serve.Batch
module Obs = Granii_obs.Obs
module Dense = Granii_tensor.Dense
module Prng = Granii_tensor.Prng
module L = Ledger

let k_in = 32
let k_out = 16
let clients = 4
let tenants = 2
let feature_pool = 8
let graph_name = "rmat:12:16"
let models = [ "gcn"; "gat" ]
let setup_reps = 9
let checks = 8
let warmup_s = 2.

type inputs = { graph : G.Graph.t; feats : Dense.t array }

let inputs seed =
  let graph = G.Generators.rmat ~seed ~scale:12 ~edge_factor:16 () in
  let n = G.Graph.n_nodes graph in
  { graph;
    feats =
      Array.init feature_pool (fun i ->
          Dense.random ~seed:((seed * 7919) + i) n k_in) }

let value_equal a b =
  match (a, b) with
  | Executor.Vdense x, Executor.Vdense y ->
      x.Dense.rows = y.Dense.rows && x.Dense.cols = y.Dense.cols
      && L.bits_equal x.Dense.data y.Dense.data
  | _ -> false

(* The program's set-up: server, graph registration, and one request per
   model so that compilation and selection are done before timing. *)
let start ~obs inp =
  let server = Serve.create ~obs { Serve.default_config with workers = 1 } in
  Serve.register_graph server ~name:graph_name inp.graph;
  List.iter
    (fun model ->
      match
        Serve.submit server ~tenant:"t0" ~graph:graph_name ~model ~k_out
          ~features:inp.feats.(0)
      with
      | Ok ticket -> ignore (Serve.await server ticket : Serve.response)
      | Error r -> failwith ("serve warm-up rejected: " ^ Serve.reject_to_string r))
    models;
  server

type pending = {
  idx : int;
  client : int;
  model : string;
  fidx : int;
  ticket : Serve.ticket;
  t_submit : float;
}

type completion = { cmodel : string; width : int; latency : float }

type loop = {
  completions : completion list;
  wall : float;  (** first submit to last observed completion *)
  issued : int;
  rejected : int;
  kept : (string * int * Executor.value) list;  (** model, feature, value *)
}

let closed_loop ?(tr = L.off) server inp rng ~seconds ~keep =
  let pending = Queue.create () in
  let issued = ref 0 and rejected = ref 0 in
  let completions = ref [] and kept = ref [] in
  let t_start = L.now () in
  let deadline = t_start +. seconds in
  let submit client =
    let idx = !issued in
    incr issued;
    let model = if Prng.int rng 4 = 0 then "gat" else "gcn" in
    let fidx = Prng.int rng feature_pool in
    L.set_op tr idx;
    let t_submit = L.now () in
    match
      L.span tr "serve.submit" (fun () ->
          Serve.submit server
            ~tenant:(Printf.sprintf "t%d" (client mod tenants))
            ~graph:graph_name ~model ~k_out ~features:inp.feats.(fidx))
    with
    | Ok ticket -> Queue.push { idx; client; model; fidx; ticket; t_submit } pending
    | Error _ -> incr rejected (* the client leaves the loop *)
  in
  for c = 0 to clients - 1 do submit c done;
  let t_end = ref t_start in
  while not (Queue.is_empty pending) do
    let head = Queue.pop pending in
    L.set_op tr head.idx;
    let resp = L.span tr "serve.await" (fun () -> Serve.await server head.ticket) in
    let t = L.now () in
    t_end := t;
    (* requests that completed alongside the oldest one *)
    let rest = List.of_seq (Queue.to_seq pending) in
    Queue.clear pending;
    let finished =
      List.filter_map
        (fun p ->
          match Serve.poll server p.ticket with
          | Some r -> Some (p, r)
          | None ->
              Queue.push p pending;
              None)
        rest
    in
    List.iter
      (fun (p, (r : Serve.response)) ->
        completions :=
          { cmodel = p.model; width = r.Serve.width; latency = t -. p.t_submit }
          :: !completions;
        if keep p.idx then kept := (p.model, p.fidx, r.Serve.value) :: !kept;
        if t < deadline then submit p.client)
      ((head, resp) :: finished)
  done;
  { completions = List.rev !completions;
    wall = !t_end -. t_start;
    issued = !issued;
    rejected = !rejected;
    kept = !kept }

let latencies l = List.map (fun c -> c.latency) l.completions

(* Throughput over the loop's whole wall time and latency quantiles over
   every request. *)
let stats l =
  let lat = latencies l in
  ( float_of_int (List.length l.completions) /. l.wall,
    L.quantile lat 0.5,
    L.quantile lat 0.9 )

(* The server's own plan and parameters for each model, rebuilt through
   the public calls the server makes on a plan-cache miss. *)
let prepare tr inp =
  let oracle =
    Cost_oracle.of_model (Cost_model.analytic Serve.default_config.Serve.profile)
  in
  let feats = L.span tr "featurizer.extract" (fun () -> Featurizer.extract inp.graph) in
  let n = G.Graph.n_nodes inp.graph in
  let env = { Dim.n; nnz = G.Graph.n_edges inp.graph + n; k_in; k_out } in
  let per_model model =
    let low = Mp.Lower.lower (Mp.Mp_models.find model) in
    let compiled, _ =
      Granii.compile ~name:model
        ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
        low.Mp.Lower.ir
    in
    let lc =
      L.span tr "selector.select" (fun () ->
          Selector.select_localized ~oracle ~feats ~env ~iterations:1
            ~configs:[ Locality.default ] compiled)
    in
    let params =
      Gnn.Layer.init_params ~seed:Serve.default_config.Serve.param_seed ~env low
    in
    (model, (lc.Selector.lchoice.Selector.candidate.Codegen.plan, params))
  in
  (env, List.map per_model models)

type replay = {
  service : (string * int, float * int) Hashtbl.t;  (** seconds, jobs *)
  roof : Roofline.t;
  mutable reports : (float * float * float) list;
      (** layout, setup and iteration seconds of each width-1 job *)
  mutable widened : int;
  mutable scattered : int;
  mutable batched : int;
  mutable mismatches : int;
  mutable compared : int;
}

let replay_jobs tr inp ~peaks ~seconds ~seed (u : loop) =
  let env, prepared = prepare tr inp in
  let graph = inp.graph in
  let r =
    { service = Hashtbl.create 16; roof = Roofline.create peaks; reports = [];
      widened = 0; scattered = 0; batched = 0; mismatches = 0; compared = 0 }
  in
  let ws = Granii_tensor.Workspace.create () in
  let single plan params h =
    let bindings =
      L.span tr "layer.bindings" (fun () -> Gnn.Layer.bindings ~graph ~h params)
    in
    L.span tr "executor.exec" (fun () ->
        let engine = Engine.create_exn ~workspace:ws Engine.default_config in
        Executor.exec ~engine ~timing:Executor.Measure ~graph ~bindings plan)
  in
  (* the replayed plans reproduce served responses bitwise *)
  List.iter
    (fun model ->
      match List.find_opt (fun (m, _, _) -> m = model) u.kept with
      | None -> ()
      | Some (_, fidx, served) ->
          let plan, params = List.assoc model prepared in
          let rep = single plan params inp.feats.(fidx) in
          r.compared <- r.compared + 1;
          if not (value_equal rep.Executor.output served) then
            r.mismatches <- r.mismatches + 1)
    models;
  (* the untraced run's jobs by (model, width), every kind first, then the
     rest in seeded order *)
  let requests = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let k = (c.cmodel, c.width) in
      Hashtbl.replace requests k
        (1 + Option.value ~default:0 (Hashtbl.find_opt requests k)))
    u.completions;
  let kinds = List.sort compare (List.of_seq (Hashtbl.to_seq_keys requests)) in
  let rest =
    Array.of_list
      (List.concat_map
         (fun ((_, w) as k) ->
           List.init (max 0 ((Hashtbl.find requests k / w) - 1)) (fun _ -> k))
         kinds)
  in
  Prng.shuffle_in_place (Prng.create (seed + 17)) rest;
  let deadline = L.now () +. seconds in
  List.iteri
    (fun j ((model, w) as k) ->
      if j < List.length kinds || L.now () < deadline then begin
        L.set_op tr j;
        let plan, params = List.assoc model prepared in
        let fs = List.init w (fun i -> inp.feats.((j + i) mod feature_pool)) in
        let t0 = L.now () in
        (if w = 1 then begin
           let rep = single plan params (List.hd fs) in
           r.reports <-
             Executor.(rep.layout_time, rep.setup_time, rep.iteration_time)
             :: r.reports;
           Roofline.add r.roof ~threads:1 ~env ~iterations:1 rep.Executor.per_step
         end
         else begin
           let shared =
             L.span tr "layer.bindings" (fun () ->
                 List.filter
                   (fun (name, _) -> name <> "H")
                   (Gnn.Layer.bindings ~graph ~h:(List.hd fs) params))
           in
           let _, st =
             L.span tr "batch.exec_batch" (fun () ->
                 Batch.exec_batch ~graph ~bindings:shared ~input:"H"
                   ~features:fs plan)
           in
           r.batched <- r.batched + 1;
           r.widened <- r.widened + st.Batch.widened_steps;
           r.scattered <- r.scattered + st.Batch.scattered_steps
         end);
        let dt = L.now () -. t0 in
        let s, n = Option.value ~default:(0., 0) (Hashtbl.find_opt r.service k) in
        Hashtbl.replace r.service k (s +. dt, n + 1)
      end)
    (kinds @ Array.to_list rest);
  (r, requests)

let run ~seed ~seconds ~trace ~peaks =
  let inp = inputs seed in
  let setup_s, server =
    L.repeat_setup ~reps:setup_reps ~release:Serve.shutdown (fun () ->
        start ~obs:(Obs.create ~trace:false ~costmon:false ()) inp)
  in
  let rng = Prng.create ((seed * 31) + 1) in
  let keep_idx =
    let k = Prng.create ((seed * 31) + 2) in
    0 :: List.init (checks - 1) (fun _ -> 1 + Prng.int k 200)
  in
  let keep i = List.mem i keep_idx in
  (* the heap grows to its working size during the first seconds of load *)
  ignore (closed_loop server inp rng ~seconds:warmup_s ~keep:(fun _ -> false) : loop);
  let g0 = L.gc_mark () and st0 = Serve.stats server in
  let u = closed_loop server inp rng ~seconds ~keep in
  let g1 = L.gc_mark () and st1 = Serve.stats server in
  let n_u = List.length u.completions in
  (* outputs checked against the single-threaded reference, outside timing *)
  let compared = ref 0 and mismatches = ref 0 in
  List.iter
    (fun (model, fidx, v) ->
      incr compared;
      let reference =
        Serve.oracle server ~graph:graph_name ~model ~k_out
          ~features:inp.feats.(fidx)
      in
      if not (value_equal v reference) then incr mismatches)
    u.kept;
  let rps, p50, p90 = stats u in
  let e2e =
    [ L.m "setup_s" "s" setup_s;
      L.m "throughput_rps" "1/s" rps;
      L.m "latency_p50_ms" "ms" (1000. *. p50);
      L.m "latency_p90_ms" "ms" (1000. *. p90) ]
  in
  let layers, tracers =
    if not trace then ([], [])
    else begin
      let tr_loop = L.tracer ~on:true "serve.loop" in
      let t =
        closed_loop ~tr:tr_loop server inp rng ~seconds:(seconds /. 4.)
          ~keep:(fun _ -> false)
      in
      let tr_replay = L.tracer ~on:true "serve.replay" in
      let r, requests =
        replay_jobs tr_replay inp ~peaks ~seconds:(seconds /. 4.) ~seed u
      in
      compared := !compared + r.compared;
      mismatches := !mismatches + r.mismatches;
      Serve.shutdown server;
      (* the same loop against a server without the production sink *)
      let bare = start ~obs:Obs.disabled inp in
      let d = closed_loop bare inp rng ~seconds:(seconds /. 4.) ~keep:(fun _ -> false) in
      Serve.shutdown bare;
      let agg_loop = L.aggregate tr_loop and agg = L.aggregate tr_replay in
      let mean_service k =
        match Hashtbl.find_opt r.service k with
        | Some (s, n) when n > 0 -> s /. float_of_int n
        | _ -> 0.
      in
      let queue_wait =
        L.mean
          (List.map
             (fun c -> c.latency -. mean_service (c.cmodel, c.width))
             u.completions)
      in
      (* the worker's busy time the replayed layers account for *)
      let busy =
        Hashtbl.fold
          (fun ((_, w) as k) reqs acc ->
            acc +. (float_of_int (reqs / w) *. mean_service k))
          requests 0.
        +. (float_of_int n_u *. L.per_call agg_loop "serve.submit")
      in
      let mean_report f = 1000. *. L.mean (List.map f r.reports) in
      let d_batches = st1.Serve.batches - st0.Serve.batches in
      let pc0 = st0.Serve.plan_cache and pc1 = st1.Serve.plan_cache in
      let hits = pc1.Plan_cache.hits - pc0.Plan_cache.hits in
      let lookups = hits + pc1.Plan_cache.misses - pc0.Plan_cache.misses in
      let rps_t, _, _ = stats t and _, p50_d, _ = stats d in
      ( [ L.m "layer.bindings_ms" "ms" (1000. *. L.per_call agg "layer.bindings");
          L.m "serve.submit_us" "us" (1e6 *. L.per_call agg_loop "serve.submit");
          L.m "serve.queue_wait_ms" "ms" (1000. *. queue_wait);
          L.m "serve.batch_width" "count"
            (L.ratio
               (float_of_int (st1.Serve.sum_width - st0.Serve.sum_width))
               (float_of_int d_batches));
          L.m "executor.exec_ms" "ms" (1000. *. L.per_call agg "executor.exec");
          L.m "batch.exec_ms" "ms" (1000. *. L.per_call agg "batch.exec_batch");
          L.m "batch.widened_steps" "count"
            (L.ratio (float_of_int r.widened) (float_of_int r.batched));
          L.m "batch.scattered_steps" "count"
            (L.ratio (float_of_int r.scattered) (float_of_int r.batched));
          L.m "plan_cache.hit_ratio" "ratio"
            (L.ratio (float_of_int hits) (float_of_int lookups));
          L.m "selector.select_ms" "ms" (1000. *. L.per_call agg "selector.select");
          L.m "featurizer.extract_ms" "ms"
            (1000. *. L.per_call agg "featurizer.extract");
          L.m "executor.layout_ms" "ms" (mean_report (fun (l, _, _) -> l));
          L.m "executor.setup_ms" "ms" (mean_report (fun (_, s, _) -> s));
          L.m "executor.iter_ms" "ms" (mean_report (fun (_, _, i) -> i));
          L.m "obs.overhead_frac" "ratio" (L.ratio (p50 -. p50_d) p50_d);
          L.m "gc.alloc_mb_per_op" "MB"
            (L.ratio (L.alloc_mb g0 g1) (float_of_int n_u));
          L.m "gc.major_collections" "count" (float_of_int (g1.L.majors - g0.L.majors));
          L.m "residual_frac" "ratio" (L.ratio (u.wall -. busy) u.wall);
          L.m "trace.overhead_frac" "ratio" (L.ratio (rps -. rps_t) rps_t) ]
        @ Roofline.metrics r.roof,
        [ tr_loop; tr_replay ] )
    end
  in
  if not trace then Serve.shutdown server;
  { L.attempted = u.issued;
    failed = u.rejected + !mismatches;
    checked = !compared;
    metrics = e2e @ [ L.m "heap_peak_mb" "MB" (L.heap_peak_mb ()) ] @ layers;
    notes =
      [ ("requests", float_of_int n_u);
        ("mean_width",
         L.ratio
           (float_of_int (st1.Serve.sum_width - st0.Serve.sum_width))
           (float_of_int (st1.Serve.batches - st0.Serve.batches))) ] }
  , tracers
