(* The serving runtime (lib/serve): deterministic concurrency harness.

   Manual mode (workers = 0) makes every interleaving scripted — nothing
   executes until the test pumps the scheduler — so plan-cache counters,
   backpressure at the exact queue bound, arena isolation, the oracle feed
   and graceful shutdown are all checked against hand counts. Every served
   request is one executor run. The threaded scheduler is covered by a
   randomized stress test (2-4 worker domains, mixed graphs/widths/tenants)
   where every response is compared against the single-threaded oracle;
   GRANII_STRESS multiplies the trial count (the @serve-stress alias). *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn
module Serve = Granii_serve.Serve
module Batch = Granii_serve.Batch
module Plan_cache = Granii_core.Plan_cache
module Obs = Granii_obs.Obs

let stress n =
  match Sys.getenv_opt "GRANII_STRESS" with
  | Some s -> (match int_of_string_opt s with Some k when k > 0 -> n * k | _ -> n)
  | None -> n

let small_graph () = G.Generators.erdos_renyi ~n:60 ~avg_degree:4. ()

(* A manual-mode server with one registered graph, shut down after [f]. *)
let with_server ?obs ?clock ?(cfg = Serve.default_config) f =
  let graph = small_graph () in
  let t = Serve.create ?obs ?clock cfg in
  Fun.protect ~finally:(fun () -> Serve.shutdown t) (fun () ->
      Serve.register_graph t ~name:"g" graph;
      f t graph)

let submit_exn t ~tenant ~k_out ~features =
  match Serve.submit t ~tenant ~graph:"g" ~model:"gcn" ~k_out ~features with
  | Ok ticket -> ticket
  | Error r -> Alcotest.fail ("unexpected rejection: " ^ Serve.reject_to_string r)

(* ---- plan cache: counters, LRU, the disabled arm ---- *)

let test_plan_cache_unit () =
  (* any localized_choice works as a stored value; produce one real one *)
  let graph = small_graph () in
  let _, compiled = Test_engine.compile_model (Mp.Mp_models.find "gcn") in
  let feats = Featurizer.extract graph in
  let env =
    { Dim.n = G.Graph.n_nodes graph;
      nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
      k_in = 8;
      k_out = 4 }
  in
  let lc =
    Selector.select_localized
      ~oracle:(Cost_oracle.analytic Granii_hw.Hw_profile.cpu)
      ~feats ~env ~iterations:1 ~configs:[ Locality.default ] compiled
  in
  let key i =
    { Plan_cache.graph_fp = "fp"; model = "gcn"; k_in = 8; k_out = i;
      hw = "cpu"; threads = 1; layout = "identity+csr" }
  in
  (match Plan_cache.create ~capacity:(-1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity accepted");
  let pc = Plan_cache.create ~capacity:2 () in
  check_int "capacity" 2 (Plan_cache.capacity pc);
  check_true "miss on empty" (Plan_cache.find pc (key 1) = None);
  Plan_cache.add pc (key 1) lc;
  Plan_cache.add pc (key 2) lc;
  check_int "two entries" 2 (Plan_cache.length pc);
  check_true "hit" (Plan_cache.find pc (key 1) <> None);
  (* key 1 was just touched, so inserting key 3 must evict key 2 (LRU) *)
  Plan_cache.add pc (key 3) lc;
  check_true "lru survivor" (Plan_cache.peek pc (key 1) <> None);
  check_true "lru victim" (Plan_cache.peek pc (key 2) = None);
  (* peek is non-counting, replace is not an eviction *)
  Plan_cache.add pc (key 3) lc;
  let s = Plan_cache.stats pc in
  check_int "hits" 1 s.Plan_cache.hits;
  check_int "misses" 1 s.Plan_cache.misses;
  check_int "evictions" 1 s.Plan_cache.evictions;
  (* the disabled arm: capacity 0 stores nothing, every find is a miss *)
  let off = Plan_cache.create ~capacity:0 () in
  Plan_cache.add off (key 1) lc;
  check_true "disabled: no store" (Plan_cache.find off (key 1) = None);
  check_int "disabled: empty" 0 (Plan_cache.length off);
  check_int "disabled: misses counted" 1 (Plan_cache.stats off).Plan_cache.misses

(* ---- Batch.exec_batch: per-request executor runs ---- *)

(* For every model: Batch.exec_batch over B feature matrices must be
   bitwise identical to B sequential Executor.exec calls on the same plan,
   in request order. *)
let test_batch_differential () =
  let graph = small_graph () in
  let feats = Featurizer.extract graph in
  let b = 3 in
  List.iter
    (fun model_name ->
      let model = Mp.Mp_models.find model_name in
      let low, compiled = Test_engine.compile_model model in
      let k_in = 8 and k_out = 4 in
      let env, bindings =
        Test_engine.setup_bindings ~k_in ~k_out low graph
      in
      let lc =
        Selector.select_localized
          ~oracle:(Cost_oracle.analytic Granii_hw.Hw_profile.cpu)
          ~feats ~env ~iterations:1 ~configs:[ Locality.default ] compiled
      in
      let plan = lc.Selector.lchoice.Selector.candidate.Codegen.plan in
      let shared = List.filter (fun (name, _) -> name <> "H") bindings in
      let features =
        List.init b (fun i ->
            Dense.random ~seed:(100 + i) (G.Graph.n_nodes graph) k_in)
      in
      let outs, _ =
        Batch.exec_batch ~graph ~bindings:shared ~input:"H" ~features plan
      in
      List.iteri
        (fun i (f, out) ->
          let r =
            Executor.exec
              ~engine:(Engine.default ())
              ~timing:Executor.Measure ~graph
              ~bindings:(("H", Executor.Vdense f) :: shared)
              plan
          in
          check_true
            (Printf.sprintf "%s: request %d bitwise equal to sequential"
               model_name i)
            (Test_engine.value_bits_equal r.Executor.output out))
        (List.combine features outs);
      (* an empty batch and a feature row count that is not the graph's are
         caller bugs *)
      let invalid name features =
        match
          Batch.exec_batch ~graph ~bindings:shared ~input:"H" ~features plan
        with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (model_name ^ ": " ^ name ^ " accepted")
      in
      invalid "empty batch" [];
      invalid "feature row mismatch"
        [ Dense.random ~seed:1 (G.Graph.n_nodes graph + 1) k_in ])
    [ "gcn"; "gin"; "sgc"; "tagcn"; "gat"; "sage" ]

(* ---- plan cache through the server: hand-counted hits/misses ---- *)

let test_plan_cache_counts () =
  with_server
    ~cfg:{ Serve.default_config with plan_cache = 8 }
    (fun t graph ->
      let n = G.Graph.n_nodes graph in
      let submit k_out seed =
        ignore
          (submit_exn t ~tenant:"a" ~k_out
             ~features:(Dense.random ~seed n 8)
            : Serve.ticket)
      in
      (* 5 same-shape requests: selection runs once, then 4 hits *)
      for i = 1 to 5 do submit 4 i done;
      Serve.drain t;
      let pc = (Serve.stats t).Serve.plan_cache in
      check_int "one miss for the first shape" 1 pc.Plan_cache.misses;
      check_int "hits for the rest" 4 pc.Plan_cache.hits;
      (* a new output width is a new shape: exactly one more miss *)
      submit 6 9;
      Serve.drain t;
      let pc = (Serve.stats t).Serve.plan_cache in
      check_int "second shape misses once" 2 pc.Plan_cache.misses;
      check_int "hits unchanged" 4 pc.Plan_cache.hits)

(* ---- plan cache: the layout axis is part of the key (regression) ---- *)

let test_plan_cache_layout_key () =
  (* regression: two engine configs that localize differently (ordering or
     sparse format) must never share a plan — keys identical except for
     [layout] are distinct entries, not hits *)
  let graph = small_graph () in
  let _, compiled = Test_engine.compile_model (Mp.Mp_models.find "gcn") in
  let feats = Featurizer.extract graph in
  let env =
    { Dim.n = G.Graph.n_nodes graph;
      nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
      k_in = 8;
      k_out = 4 }
  in
  let lc =
    Selector.select_localized
      ~oracle:(Cost_oracle.analytic Granii_hw.Hw_profile.cpu)
      ~feats ~env ~iterations:1 ~configs:[ Locality.default ] compiled
  in
  let key layout =
    { Plan_cache.graph_fp = "fp"; model = "gcn"; k_in = 8; k_out = 4;
      hw = "cpu"; threads = 1; layout }
  in
  let layouts = [ "identity+csr"; "identity+hybrid"; "degree+csr"; "rcm+hybrid" ] in
  let pc = Plan_cache.create ~capacity:8 () in
  Plan_cache.add pc (key "identity+csr") lc;
  List.iter
    (fun l ->
      check_true (l ^ " does not hit another layout's plan")
        (Plan_cache.find pc (key l) = None))
    (List.tl layouts);
  List.iter (fun l -> Plan_cache.add pc (key l) lc) (List.tl layouts);
  check_int "each layout is its own entry" (List.length layouts)
    (Plan_cache.length pc);
  (* a locality-configured server still answers bitwise like the oracle *)
  let locality =
    { Locality.strategy = G.Reorder.Degree_sort; format = Locality.Hybrid }
  in
  with_server
    ~cfg:{ Serve.default_config with plan_cache = 8; locality }
    (fun t graph ->
      let n = G.Graph.n_nodes graph in
      let f = Dense.random ~seed:61 n 8 in
      let tk = submit_exn t ~tenant:"a" ~k_out:4 ~features:f in
      Serve.drain t;
      match Serve.poll t tk with
      | None -> Alcotest.fail "ticket not completed"
      | Some r ->
          check_true "localized serving bitwise equals the oracle"
            (Test_engine.value_bits_equal r.Serve.value
               (Serve.oracle t ~graph:"g" ~model:"gcn" ~k_out:4 ~features:f)))

(* ---- backpressure: typed rejection at the exact bound ---- *)

let test_backpressure () =
  with_server
    ~cfg:{ Serve.default_config with queue_bound = 2 }
    (fun t graph ->
      let f = Dense.random ~seed:1 (G.Graph.n_nodes graph) 8 in
      let ok tenant =
        match Serve.submit t ~tenant ~graph:"g" ~model:"gcn" ~k_out:4
                ~features:f with
        | Ok _ -> ()
        | Error r -> Alcotest.fail (Serve.reject_to_string r)
      in
      ok "a";
      ok "a";
      check_int "queue at the bound" 2 (Serve.queue_depth t "a");
      (match Serve.submit t ~tenant:"a" ~graph:"g" ~model:"gcn" ~k_out:4
               ~features:f with
      | Error (Serve.Queue_full { tenant; bound }) ->
          check_true "rejection names the tenant" (tenant = "a");
          check_int "rejection carries the bound" 2 bound
      | Ok _ -> Alcotest.fail "admission beyond the bound"
      | Error Serve.Shutdown -> Alcotest.fail "wrong rejection");
      (* bounds are per tenant: another tenant still has room *)
      ok "b";
      let s = Serve.stats t in
      check_int "rejected counted" 1 s.Serve.rejected;
      check_int "admitted counted" 3 s.Serve.submitted;
      (* draining frees the slots *)
      Serve.drain t;
      check_int "queue drained" 0 (Serve.queue_depth t "a");
      ok "a")

(* ---- arena isolation: a response survives later requests ---- *)

let test_arena_isolation () =
  (* every execution uses its tenant's arena — the path where a stale
     response would be overwritten if the runtime skipped the copy-out *)
  with_server (fun t graph ->
      let n = G.Graph.n_nodes graph in
      let f1 = Dense.random ~seed:1 n 8 and f2 = Dense.random ~seed:2 n 8 in
      let tk1 = submit_exn t ~tenant:"a" ~k_out:4 ~features:f1 in
      let r1 = Serve.await t tk1 in
      let expect1 =
        Serve.oracle t ~graph:"g" ~model:"gcn" ~k_out:4 ~features:f1
      in
      check_true "first response correct"
        (Test_engine.value_bits_equal r1.Serve.value expect1);
      (* run more requests through the same tenant's arena, and another
         tenant's, then re-check the first response bit for bit *)
      for i = 0 to 3 do
        let tenant = if i mod 2 = 0 then "a" else "b" in
        ignore
          (Serve.await t (submit_exn t ~tenant ~k_out:4 ~features:f2)
            : Serve.response)
      done;
      check_true "first response still intact after later requests"
        (Test_engine.value_bits_equal r1.Serve.value expect1))

(* ---- graceful shutdown ---- *)

let test_shutdown () =
  let graph = small_graph () in
  let t = Serve.create Serve.default_config in
  Serve.register_graph t ~name:"g" graph;
  let f = Dense.random ~seed:1 (G.Graph.n_nodes graph) 8 in
  let tickets =
    List.init 3 (fun i ->
        submit_exn t ~tenant:(Printf.sprintf "t%d" i) ~k_out:4 ~features:f)
  in
  (* nothing pumped yet: all three are still queued when shutdown begins *)
  Serve.shutdown t;
  List.iter
    (fun tk ->
      check_true "admitted request answered during drain"
        (Serve.poll t tk <> None))
    tickets;
  (match Serve.submit t ~tenant:"t0" ~graph:"g" ~model:"gcn" ~k_out:4
           ~features:f with
  | Error Serve.Shutdown -> ()
  | Ok _ | Error (Serve.Queue_full _) ->
      Alcotest.fail "submit after shutdown must reject with Shutdown");
  Serve.shutdown t;
  (* idempotent *)
  let s = Serve.stats t in
  check_int "drained everything" 3 s.Serve.completed;
  check_int "post-shutdown submit rejected" 1 s.Serve.rejected

(* ---- scripted latency via the injected clock ---- *)

let test_manual_clock () =
  let now = ref 0. in
  with_server ~clock:(fun () -> !now) (fun t graph ->
      let f = Dense.random ~seed:1 (G.Graph.n_nodes graph) 8 in
      let tk = submit_exn t ~tenant:"a" ~k_out:4 ~features:f in
      now := 0.25;
      let tk2 = submit_exn t ~tenant:"b" ~k_out:4 ~features:f in
      now := 1.0;
      Serve.drain t;
      let r = Option.get (Serve.poll t tk) in
      let r2 = Option.get (Serve.poll t tk2) in
      check_float "latency measured on the injected clock" 1.0 r.Serve.latency;
      check_float "second submission's scripted latency" 0.75 r2.Serve.latency)

(* ---- the oracle feed: one (predicted, measured) pair per request ---- *)

let test_oracle_feed () =
  with_server
    ~cfg:{ Serve.default_config with calibration = Cost_oracle.Affine }
    (fun t graph ->
      let n = G.Graph.n_nodes graph in
      let oracle = Serve.serve_oracle t in
      let before = Cost_oracle.observed oracle in
      let tickets =
        List.init 4 (fun i ->
            submit_exn t ~tenant:(Printf.sprintf "t%d" (i mod 2)) ~k_out:4
              ~features:(Dense.random ~seed:(10 + i) n 8))
      in
      Serve.drain t;
      List.iter
        (fun tk -> check_true "drained" (Serve.poll t tk <> None))
        tickets;
      check_int "one oracle observation per request" 4
        (Cost_oracle.observed oracle - before))

(* ---- config plumbing and argument validation ---- *)

let test_config () =
  let bad name cfg =
    match Serve.create cfg with
    | exception Invalid_argument _ -> ()
    | t ->
        Serve.shutdown t;
        Alcotest.fail (name ^ ": invalid config accepted")
  in
  bad "queue_bound" { Serve.default_config with queue_bound = 0 };
  bad "workers" { Serve.default_config with workers = -1 };
  bad "plan_cache" { Serve.default_config with plan_cache = -1 };
  bad "threads" { Serve.default_config with threads = 0 };
  bad "iterations" { Serve.default_config with iterations = 0 };
  with_server (fun t graph ->
      let n = G.Graph.n_nodes graph in
      let f = Dense.random ~seed:1 n 8 in
      let expect_invalid name fn =
        match fn () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
      in
      expect_invalid "duplicate graph" (fun () ->
          Serve.register_graph t ~name:"g" graph);
      expect_invalid "unknown graph" (fun () ->
          Serve.submit t ~tenant:"a" ~graph:"nope" ~model:"gcn" ~k_out:4
            ~features:f);
      expect_invalid "unknown model" (fun () ->
          Serve.submit t ~tenant:"a" ~graph:"g" ~model:"nope" ~k_out:4
            ~features:f);
      expect_invalid "feature row mismatch" (fun () ->
          Serve.submit t ~tenant:"a" ~graph:"g" ~model:"gcn" ~k_out:4
            ~features:(Dense.random ~seed:1 (n + 1) 8));
      expect_invalid "k_out < 1" (fun () ->
          Serve.submit t ~tenant:"a" ~graph:"g" ~model:"gcn" ~k_out:0
            ~features:f);
      expect_invalid "pump in threaded mode" (fun () ->
          let tt = Serve.create { Serve.default_config with workers = 1 } in
          Fun.protect ~finally:(fun () -> Serve.shutdown tt) (fun () ->
              ignore (Serve.pump tt : bool))))

(* ---- serving metrics reach the registry ---- *)

let test_metrics () =
  let obs = Obs.create () in
  with_server ~obs
    ~cfg:{ Serve.default_config with queue_bound = 1 }
    (fun t graph ->
      let f = Dense.random ~seed:1 (G.Graph.n_nodes graph) 8 in
      ignore (submit_exn t ~tenant:"a" ~k_out:4 ~features:f : Serve.ticket);
      ignore
        (Serve.submit t ~tenant:"a" ~graph:"g" ~model:"gcn" ~k_out:4
           ~features:f
          : (Serve.ticket, Serve.reject) result);
      Serve.drain t;
      let m = Option.get obs.Obs.metrics in
      let counter name =
        match List.assoc_opt name (Obs.Metrics.counters m) with
        | Some v -> v
        | None -> Alcotest.fail ("missing counter " ^ name)
      in
      check_int "submitted counter" 1 (counter "serve.requests.submitted");
      check_int "completed counter" 1 (counter "serve.requests.completed");
      check_int "rejected counter" 1 (counter "serve.requests.rejected");
      check_int "plan-cache miss counter" 1 (counter "serve.plan_cache.misses");
      check_true "latency histogram populated"
        (List.mem_assoc "serve.latency" (Obs.Metrics.histograms m));
      check_true "queue-depth gauge present"
        (List.mem_assoc "serve.queue.depth.a" (Obs.Metrics.gauges m));
      check_true "prometheus export carries the serving metrics"
        (contains (Obs.Metrics.to_prometheus m) "serve_requests_submitted"))

(* ---- threaded stress: random streams vs the single-threaded oracle ---- *)

let test_threaded_stress () =
  let rng = Random.State.make [| 0x5e47e |] in
  let trials = stress 2 in
  for trial = 1 to trials do
    let workers = 2 + Random.State.int rng 3 in
    let cfg =
      { Serve.default_config with
        workers;
        queue_bound = 8;
        plan_cache = 8 }
    in
    let t = Serve.create cfg in
    let g1 = small_graph () in
    let g2 = G.Generators.grid2d ~rows:6 ~cols:8 () in
    Serve.register_graph t ~name:"g1" g1;
    Serve.register_graph t ~name:"g2" g2;
    let k_in = 8 in
    let pool g = Array.init 3 (fun i -> Dense.random ~seed:i (G.Graph.n_nodes g) k_in) in
    let feats = [| ("g1", pool g1); ("g2", pool g2) |] in
    let models = [| "gcn"; "sgc" |] in
    let n_req = stress 24 in
    let requests =
      List.init n_req (fun i ->
          let graph, fpool = feats.(Random.State.int rng 2) in
          let fidx = Random.State.int rng 3 in
          ( i,
            Printf.sprintf "t%d" (Random.State.int rng 3),
            graph,
            fpool.(fidx),
            models.(Random.State.int rng 2),
            4 + (2 * Random.State.int rng 2) ))
    in
    let retries = ref 0 in
    let tickets =
      List.map
        (fun (_, tenant, graph, f, model, k_out) ->
          let rec go () =
            match Serve.submit t ~tenant ~graph ~model ~k_out ~features:f with
            | Ok tk -> tk
            | Error (Serve.Queue_full _) ->
                incr retries;
                Unix.sleepf 200e-6;
                go ()
            | Error Serve.Shutdown -> Alcotest.fail "spurious shutdown"
          in
          (go (), graph, f, model, k_out))
        requests
    in
    let responses =
      List.map
        (fun (tk, graph, f, model, k_out) ->
          let r = Serve.await t tk in
          (tk, r, graph, f, model, k_out))
        tickets
    in
    let s = Serve.stats t in
    Serve.shutdown t;
    check_int
      (Printf.sprintf "trial %d: every admitted request completed" trial)
      n_req s.Serve.completed;
    check_int
      (Printf.sprintf "trial %d: admissions equal requests" trial)
      n_req s.Serve.submitted;
    check_int
      (Printf.sprintf "trial %d: rejections equal observed retries" trial)
      !retries s.Serve.rejected;
    check_int
      (Printf.sprintf "trial %d: one executor run per completion" trial)
      s.Serve.completed s.Serve.batches;
    (* no request lost or double-answered: polling again returns the same
       completed response object *)
    let expected = Hashtbl.create 32 in
    List.iter
      (fun (tk, (r : Serve.response), graph, f, model, k_out) ->
        (match Serve.poll t tk with
        | Some r' -> check_true "stable completion" (r' == r)
        | None -> Alcotest.fail "completed ticket lost its response");
        check_int
          (Printf.sprintf "trial %d: every response has width 1" trial)
          1 r.Serve.width;
        let key = (graph, f.Dense.data.(0), model, k_out) in
        let reference =
          match Hashtbl.find_opt expected key with
          | Some v -> v
          | None ->
              let v = Serve.oracle t ~graph ~model ~k_out ~features:f in
              Hashtbl.replace expected key v;
              v
        in
        check_true
          (Printf.sprintf "trial %d: response matches the oracle" trial)
          (Test_engine.value_bits_equal r.Serve.value reference))
      responses
  done

let suite =
  [ Alcotest.test_case "plan cache: counters, LRU, disabled arm" `Quick
      test_plan_cache_unit;
    Alcotest.test_case "batching legality: batch bitwise = sequential" `Quick
      test_batch_differential;
    Alcotest.test_case "plan cache: served hits/misses vs hand count" `Quick
      test_plan_cache_counts;
    Alcotest.test_case "plan cache: layout axis keys plans" `Quick
      test_plan_cache_layout_key;
    Alcotest.test_case "backpressure: typed rejection at the bound" `Quick
      test_backpressure;
    Alcotest.test_case "arena isolation across requests" `Quick
      test_arena_isolation;
    Alcotest.test_case "graceful shutdown drains admitted work" `Quick
      test_shutdown;
    Alcotest.test_case "injected clock scripts latencies" `Quick
      test_manual_clock;
    Alcotest.test_case "calibrating server feeds one pair per request" `Quick
      test_oracle_feed;
    Alcotest.test_case "config and argument validation" `Quick
      test_config;
    Alcotest.test_case "serving metrics reach the registry" `Quick
      test_metrics;
    Alcotest.test_case "threaded stress vs single-threaded oracle" `Slow
      test_threaded_stress ]
