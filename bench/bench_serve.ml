(* Serving runtime: what the plan cache and request batching buy under
   closed-loop load (lib/serve). Real host-CPU measurements: each arm runs
   the same request stream against a fresh server with the feature toggled,
   so the JSON rows carry the ablation the tentpole promises — selection
   amortized to one miss per shape, batching raising throughput. Every arm
   additionally checks one served response bitwise against the
   single-threaded oracle. *)

open Bench_common
module Dense = Granii_tensor.Dense
module G = Granii_graph
module Executor = Granii_core.Executor
module Serve = Granii_serve.Serve
module Ssim = Granii_serve.Sim
module Plan_cache = Granii_core.Plan_cache

let value_bits_equal a b =
  match (a, b) with
  | Executor.Vdense x, Executor.Vdense y ->
      x.Dense.rows = y.Dense.rows
      && x.Dense.cols = y.Dense.cols
      && Array.for_all2
           (fun p q -> Int64.bits_of_float p = Int64.bits_of_float q)
           x.Dense.data y.Dense.data
  | _ -> false

let arm_name ~batching ~cache =
  Printf.sprintf "batch=%s cache=%s"
    (if batching then "on" else "off")
    (if cache then "on" else "off")

let run_arm ?obs (graph : G.Graph.t) ~model ~k_in ~k_out ~clients ~requests
    ~batching ~cache ~workers ~window =
  let obs = match obs with Some o -> o | None -> !Bench_common.obs in
  let cfg =
    { Serve.default_config with
      workers;
      batching;
      batch_window = window;
      plan_cache = (if cache then Serve.default_config.Serve.plan_cache else 0) }
  in
  let server = Serve.create ~obs cfg in
  Serve.register_graph server ~name:graph.G.Graph.name graph;
  let load =
    { Ssim.clients;
      requests;
      tenants = 2;
      graph = graph.G.Graph.name;
      model;
      k_in;
      k_out;
      seed = 7 }
  in
  let res = Ssim.run server load in
  (* one extra request, checked bitwise against the sequential oracle *)
  let probe = Dense.random ~seed:99 (G.Graph.n_nodes graph) k_in in
  let served =
    match
      Serve.submit server ~tenant:"probe" ~graph:graph.G.Graph.name ~model
        ~k_out ~features:probe
    with
    | Ok ticket -> (Serve.await server ticket).Serve.value
    | Error r -> failwith (Serve.reject_to_string r)
  in
  let reference =
    Serve.oracle server ~graph:graph.G.Graph.name ~model ~k_out ~features:probe
  in
  let bitwise = value_bits_equal served reference in
  Serve.shutdown server;
  (res, bitwise)

let run () =
  section "Serving: plan-cache amortization + request batching (host CPU)";
  let graph =
    if !smoke then G.Generators.erdos_renyi ~n:400 ~avg_degree:6. ()
    else G.Generators.erdos_renyi ~n:3000 ~avg_degree:8. ()
  in
  let requests = if !smoke then 48 else 192 in
  let client_grid = if !smoke then [ 1; 4 ] else [ 1; 4; 8 ] in
  let model = "gcn" and k_in = 32 and k_out = 16 in
  Printf.printf "%s on %s (n=%d nnz=%d) %d->%d, %d requests per arm\n\n" model
    graph.G.Graph.name (G.Graph.n_nodes graph) (G.Graph.n_edges graph) k_in
    k_out requests;
  Printf.printf "  %-8s %-22s %9s %9s %9s %6s %9s  %s\n" "clients" "arm"
    "req/s" "p50 ms" "p99 ms" "width" "cache h/m" "oracle";
  List.iter
    (fun clients ->
      let baseline = ref None in
      List.iter
        (fun (batching, cache) ->
          let res, bitwise =
            run_arm graph ~model ~k_in ~k_out ~clients ~requests ~batching
              ~cache ~workers:0 ~window:0
          in
          if (not batching) && not cache then baseline := Some res.Ssim.throughput;
          let s = res.Ssim.stats in
          let pc = s.Serve.plan_cache in
          Printf.printf "  %-8d %-22s %9.1f %9.3f %9.3f %6.2f %6d/%-3d  %s\n"
            clients
            (arm_name ~batching ~cache)
            res.Ssim.throughput (1000. *. res.Ssim.p50) (1000. *. res.Ssim.p99)
            res.Ssim.mean_width pc.Plan_cache.hits pc.Plan_cache.misses
            (if bitwise then "[bitwise ok]" else "[MISMATCH]");
          json_add ~bench:"serve"
            [ ("kind", S "sweep");
              ("graph", S graph.G.Graph.name);
              ("model", S model);
              ("workers", I 0);
              ("clients", I clients);
              ("requests", I requests);
              ("batching", B batching);
              ("plan_cache", B cache);
              ("throughput_rps", F res.Ssim.throughput);
              ("p50_s", F res.Ssim.p50);
              ("p99_s", F res.Ssim.p99);
              ("mean_latency_s", F res.Ssim.mean_latency);
              ("mean_width", F res.Ssim.mean_width);
              ("max_width", I s.Serve.max_width);
              ("batches", I s.Serve.batches);
              ("widened_steps", I s.Serve.widened_steps);
              ("cache_hits", I pc.Plan_cache.hits);
              ("cache_misses", I pc.Plan_cache.misses);
              ("cache_evictions", I pc.Plan_cache.evictions);
              ("retries", I res.Ssim.retries);
              ("speedup_vs_baseline",
               F
                 (match !baseline with
                 | Some b when b > 0. -> res.Ssim.throughput /. b
                 | _ -> 1.));
              ("bitwise", B bitwise) ])
        [ (false, false); (false, true); (true, false); (true, true) ])
    client_grid;
  (* one threaded-mode row: worker domains with a batch window, checking the
     concurrent scheduler end-to-end under load *)
  let clients = List.fold_left max 1 client_grid in
  let res, bitwise =
    run_arm graph ~model ~k_in ~k_out ~clients ~requests ~batching:true
      ~cache:true ~workers:2 ~window:200
  in
  let s = res.Ssim.stats in
  let pc = s.Serve.plan_cache in
  Printf.printf "  %-8d %-22s %9.1f %9.3f %9.3f %6.2f %6d/%-3d  %s\n" clients
    "workers=2 window=200us" res.Ssim.throughput (1000. *. res.Ssim.p50)
    (1000. *. res.Ssim.p99) res.Ssim.mean_width pc.Plan_cache.hits
    pc.Plan_cache.misses
    (if bitwise then "[bitwise ok]" else "[MISMATCH]");
  json_add ~bench:"serve"
    [ ("kind", S "threaded");
      ("graph", S graph.G.Graph.name);
      ("model", S model);
      ("workers", I 2);
      ("window_us", I 200);
      ("clients", I clients);
      ("requests", I requests);
      ("throughput_rps", F res.Ssim.throughput);
      ("p50_s", F res.Ssim.p50);
      ("p99_s", F res.Ssim.p99);
      ("mean_width", F res.Ssim.mean_width);
      ("batches", I s.Serve.batches);
      ("cache_hits", I pc.Plan_cache.hits);
      ("cache_misses", I pc.Plan_cache.misses);
      ("bitwise", B bitwise) ];
  (* observability overhead: the same stream against a telemetry-off server
     and one carrying the journal + metrics sink. The p50 delta is the
     tentpole's acceptance bar (<5%); the gate tracks it in absolute
     points (overhead_frac). *)
  let module Obs = Granii_obs.Obs in
  let obs_clients = 4 in
  let run_obs obs =
    fst
      (run_arm ~obs graph ~model ~k_in ~k_out ~clients:obs_clients ~requests
         ~batching:true ~cache:true ~workers:0 ~window:0)
  in
  (* throwaway warm-up so neither arm pays one-time compilation; then the
     arms alternate three times and each keeps its best p50/p99 — a single
     draw at these request counts is dominated by scheduler noise *)
  ignore (run_obs Obs.disabled);
  let journal_events = ref 0 in
  let best (p50, p99) r =
    (Float.min p50 r.Ssim.p50, Float.min p99 r.Ssim.p99)
  in
  let rec arms k acc_off acc_on =
    if k = 0 then (acc_off, acc_on)
    else begin
      let off = run_obs Obs.disabled in
      let on_obs = Obs.create ~trace:false ~costmon:false () in
      let on = run_obs on_obs in
      (match on_obs.Obs.journal with
      | Some j -> journal_events := !journal_events + Obs.Journal.total j
      | None -> ());
      arms (k - 1) (best acc_off off) (best acc_on on)
    end
  in
  let (p50_off, p99_off), (p50_on, p99_on) =
    arms 3 (infinity, infinity) (infinity, infinity)
  in
  let journal_events = !journal_events in
  let overhead = if p50_off > 0. then (p50_on -. p50_off) /. p50_off else 0. in
  Printf.printf
    "\n  observability overhead (journal + metrics vs disabled sink, \
     clients=%d, best of 3):\n\
    \  p50 %.3f ms -> %.3f ms  (%+.1f%%), %d journal events recorded\n"
    obs_clients (1000. *. p50_off) (1000. *. p50_on) (100. *. overhead)
    journal_events;
  json_add ~bench:"serve"
    [ ("kind", S "overhead");
      ("graph", S graph.G.Graph.name);
      ("model", S model);
      ("clients", I obs_clients);
      ("requests", I requests);
      ("p50_off_s", F p50_off);
      ("p50_on_s", F p50_on);
      ("p99_off_s", F p99_off);
      ("p99_on_s", F p99_on);
      ("overhead_frac", F overhead);
      ("journal_events", I journal_events) ]
