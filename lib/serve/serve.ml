module Dense = Granii_tensor.Dense
module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace
module Graph = Granii_graph.Graph
module Timer = Granii_hw.Timer
module Obs = Granii_obs.Obs
module Engine = Granii_core.Engine
module Executor = Granii_core.Executor
module Selector = Granii_core.Selector
module Featurizer = Granii_core.Featurizer
module Cost_oracle = Granii_core.Cost_oracle
module Locality = Granii_core.Locality
module Plan = Granii_core.Plan
module Plan_cache = Granii_core.Plan_cache
module Dim = Granii_core.Dim
module Codegen = Granii_core.Codegen
module Mp = Granii_mp
module Layer = Granii_gnn.Layer

type config = {
  workers : int;
  queue_bound : int;
  plan_cache : int;
  threads : int;
  profile : Granii_hw.Hw_profile.t;
  iterations : int;
  param_seed : int;
  locality : Locality.config;
  calibration : Cost_oracle.calibration;
  slo_ms : float option;
}

let default_config =
  { workers = 0;
    queue_bound = 64;
    plan_cache = 32;
    threads = 1;
    profile = Granii_hw.Hw_profile.cpu;
    iterations = 1;
    param_seed = 11;
    locality = Locality.default;
    calibration = Cost_oracle.Off;
    slo_ms = None }

type reject = Queue_full of { tenant : string; bound : int } | Shutdown

let reject_to_string = function
  | Queue_full { tenant; bound } ->
      Printf.sprintf "queue full for tenant %s (bound %d)" tenant bound
  | Shutdown -> "server shutting down"

type response = { value : Executor.value; latency : float; width : int }

type ticket = { mutable result : response option }

type stats = {
  submitted : int;
  completed : int;
  rejected : int;
  batches : int;
  sum_width : int;
  plan_cache : Plan_cache.stats;
  slo_breaches : int;
  first_breach : float option;
}

type graph_entry = {
  graph : Graph.t;
  mutable feats : Featurizer.t option;
}

type tenant = {
  tname : string;
  queue : pending Queue.t;  (* arrival order *)
  mutable busy : bool;  (* a job currently uses this arena *)
  ws : Workspace.t;
  latency : Obs.Histogram.t;  (* completion latencies, fixed memory *)
  tdrift : Obs.Drift.t;  (* Page–Hinkley over the tenant's p99 stream *)
}

and pending = {
  id : int;
  powner : tenant;
  gentry : graph_entry;
  model : string;
  k_in : int;
  k_out : int;
  features : Dense.t;
  t_submit : float;
  ticket : ticket;
}

type job = {
  req : pending;
  use_arena : bool;  (* the job holds [req.powner]'s arena *)
}

type t = {
  cfg : config;
  obs : Obs.t;
  clock : unit -> float;
  oracle : Cost_oracle.t;
  pool : Parallel.t option;  (* manual-mode kernel pool *)
  pc : Plan_cache.t;
  graphs : (string, graph_entry) Hashtbl.t;
  models : (string, Mp.Lower.lowered * Codegen.t) Hashtbl.t;
  params : (string * int * int, Layer.params) Hashtbl.t;
  tenants : (string, tenant) Hashtbl.t;
  m : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable domains : unit Domain.t list;
  mutable next_id : int;
  mutable shutting : bool;
  mutable shut_done : bool;
  mutable submitted : int;
  mutable completed : int;
  mutable rejected : int;
  mutable slo_breaches : int;
  mutable first_breach : float option;  (* clock time of the first breach *)
  mutable oracle_name : string;  (* last plan-cache key component used *)
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* ---- job selection (lock held) ---- *)

let depth_gauge t (ten : tenant) =
  Obs.gauge t.obs
    ("serve.queue.depth." ^ ten.tname)
    (float_of_int (Queue.length ten.queue))

(* The oldest queued request across all tenants: every queue is in arrival
   order, so it is the head with the smallest id. *)
let pick t =
  let oldest = ref None in
  Hashtbl.iter
    (fun _ ten ->
      match (Queue.peek_opt ten.queue, !oldest) with
      | None, _ -> ()
      | Some p, Some o when o.id < p.id -> ()
      | Some p, _ -> oldest := Some p)
    t.tenants;
  Option.map
    (fun p ->
      ignore (Queue.pop p.powner.queue : pending);
      depth_gauge t p.powner;
      let use_arena = not p.powner.busy in
      p.powner.busy <- true;
      { req = p; use_arena })
    !oldest

(* ---- plan and parameter resolution (lock held) ---- *)

let model_entry t name =
  let key = String.lowercase_ascii name in
  match Hashtbl.find_opt t.models key with
  | Some e -> e
  | None ->
      let low = Mp.Lower.lower (Mp.Mp_models.find key) in
      let compiled, _ =
        Granii_core.Granii.compile ~name:key
          ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
          low.Mp.Lower.ir
      in
      Hashtbl.replace t.models key (low, compiled);
      (low, compiled)

let params_for t (ge : graph_entry) ~model ~k_in ~k_out =
  let key = (String.lowercase_ascii model, k_in, k_out) in
  match Hashtbl.find_opt t.params key with
  | Some p -> p
  | None ->
      let low, _ = model_entry t model in
      let n = Graph.n_nodes ge.graph in
      let env = { Dim.n; nnz = Graph.n_edges ge.graph + n; k_in; k_out } in
      let p = Layer.init_params ~seed:t.cfg.param_seed ~env low in
      Hashtbl.replace t.params key p;
      p

let feats_of (ge : graph_entry) =
  match ge.feats with
  | Some f -> f
  | None ->
      let f = Featurizer.extract ge.graph in
      ge.feats <- Some f;
      f

(* Selection, amortized through the plan cache: one counting lookup per
   executor invocation. The configured layout axis (default unless the
   caller opted in — per-request graph reordering rarely amortizes,
   DESIGN.md §12) is part of the cache key, so engines that localize
   differently never share a plan. *)
let select_plan t (ge : graph_entry) ~model ~k_in ~k_out =
  let oname = Cost_oracle.name t.oracle in
  if oname <> t.oracle_name then begin
    (* an accepted calibration pass renamed the oracle; every cached plan
       keyed on the old name is now unreachable — record the invalidation *)
    Obs.count t.obs "serve.plan_cache.invalidated" 1;
    Obs.event t.obs Obs.Journal.Plan_cache_invalidate ~tag:oname
      ~v:(float_of_int (Cost_oracle.version t.oracle));
    t.oracle_name <- oname
  end;
  let key =
    Plan_cache.key_of ~graph_fp:(Graph.fingerprint ge.graph) ~model ~k_in
      ~k_out ~hw:oname ~threads:t.cfg.threads ~locality:t.cfg.locality
  in
  let lc =
    match Plan_cache.find t.pc key with
    | Some lc -> lc
    | None ->
        let _, compiled = model_entry t model in
        let feats = feats_of ge in
        let n = Graph.n_nodes ge.graph in
        let env = { Dim.n; nnz = Graph.n_edges ge.graph + n; k_in; k_out } in
        let lc =
          Obs.span t.obs "serve.select" (fun () ->
              Selector.select_localized ~obs:t.obs ~oracle:t.oracle
                ~feats ~env ~iterations:t.cfg.iterations
                ~configs:[ t.cfg.locality ] compiled)
        in
        Plan_cache.add t.pc key lc;
        lc
  in
  lc.Selector.lchoice.Selector.candidate.Codegen.plan

let resolve t (j : job) =
  let p = j.req in
  ( select_plan t p.gentry ~model:p.model ~k_in:p.k_in ~k_out:p.k_out,
    params_for t p.gentry ~model:p.model ~k_in:p.k_in ~k_out:p.k_out )

(* ---- execution (no lock unless manual mode) ---- *)

(* Every request is one executor run under the configured layout, drawing
   its buffers from the tenant's arena when no other job holds it (a fresh
   arena otherwise). The executor hands back a heap copy of the output, so
   the tenant's next run cannot touch a completed ticket. *)
let execute ?pool ~locality (j : job) (plan, params) =
  let p = j.req in
  let bindings = Layer.bindings ~graph:p.gentry.graph ~h:p.features params in
  let workspace = if j.use_arena then Some p.powner.ws else None in
  let engine =
    Engine.create_exn ?pool ?workspace { Engine.default_config with locality }
  in
  (Executor.exec ~engine ~timing:Executor.Measure ~graph:p.gentry.graph
     ~bindings plan)
    .Executor.output

(* ---- completion (lock held) ---- *)

(* The serving half of the calibration loop: every request is one clean
   (predicted, measured) pair at plan granularity, mirroring the trainer's
   per-batch feed (same raw analytic prediction, same ["plan:<name>"]
   correction key). *)
let feed_oracle t (p : pending) (plan : Plan.t) dt =
  if t.cfg.calibration <> Cost_oracle.Off && dt > 0. then begin
    let prof =
      match Cost_oracle.profile t.oracle with
      | Some pr -> pr
      | None -> Granii_hw.Hw_profile.cpu
    in
    let n = Graph.n_nodes p.gentry.graph in
    let env =
      { Dim.n; nnz = Graph.n_edges p.gentry.graph + n; k_in = p.k_in;
        k_out = p.k_out }
    in
    let predicted =
      Cost_oracle.analytic_plan ~threads:t.cfg.threads prof ~env
        ~iterations:1 plan
    in
    Cost_oracle.observe t.oracle ~prim:("plan:" ^ plan.Plan.name)
      ~predicted ~measured:dt
  end

(* Per-tenant latency quantile gauges plus the p99 drift feed. *)
let tenant_gauges t (ten : tenant) =
  (match t.obs.Obs.metrics with
  | None -> ()
  | Some m ->
      let labels = [ ("tenant", ten.tname) ] in
      Obs.Metrics.set_gauge_labeled m "serve.latency.p50" ~labels
        (Obs.Histogram.quantile ten.latency 0.5);
      Obs.Metrics.set_gauge_labeled m "serve.latency.p95" ~labels
        (Obs.Histogram.quantile ten.latency 0.95);
      Obs.Metrics.set_gauge_labeled m "serve.latency.p99" ~labels
        (Obs.Histogram.quantile ten.latency 0.99));
  if Obs.Histogram.count ten.latency >= 16 then begin
    let p99 = Obs.Histogram.quantile ten.latency 0.99 in
    if Float.is_finite p99 && Obs.Drift.observe ten.tdrift p99 then begin
      Obs.count t.obs "serve.drift.fired" 1;
      Obs.event t.obs Obs.Journal.Drift ~tag:(Obs.Drift.name ten.tdrift)
        ~v:(Obs.Drift.last_stat ten.tdrift)
    end
  end

let fulfill t (j : job) (plan : Plan.t) value dt =
  let p = j.req in
  let now = t.clock () in
  let latency = now -. p.t_submit in
  p.ticket.result <- Some { value; latency; width = 1 };
  t.completed <- t.completed + 1;
  Obs.count t.obs "serve.requests.completed" 1;
  Obs.observe t.obs "serve.latency" latency;
  Obs.event t.obs Obs.Journal.Request ~tag:p.powner.tname ~v:latency;
  Obs.Histogram.add p.powner.latency latency;
  (match t.cfg.slo_ms with
  | Some ms when latency *. 1000. > ms ->
      t.slo_breaches <- t.slo_breaches + 1;
      if t.first_breach = None then t.first_breach <- Some now;
      Obs.count t.obs "serve.slo.breaches" 1;
      Obs.event t.obs Obs.Journal.Slo_breach ~tag:p.powner.tname ~v:latency
  | _ -> ());
  tenant_gauges t p.powner;
  feed_oracle t p plan dt;
  if j.use_arena then p.powner.busy <- false;
  Condition.broadcast t.done_cv

(* ---- worker loop (threaded mode) ---- *)

let worker_loop t =
  let rec next () =
    Mutex.lock t.m;
    let job = ref (pick t) in
    while !job = None && not t.shutting do
      Condition.wait t.work_cv t.m;
      job := pick t
    done;
    match !job with
    | None -> Mutex.unlock t.m (* shutting down with empty queues *)
    | Some j ->
        let resolved = resolve t j in
        Mutex.unlock t.m;
        (* workers run kernels sequentially: the shared domain pool is not
           reentrant across domains *)
        let et0 = t.clock () in
        let out = execute ~locality:t.cfg.locality j resolved in
        let dt = t.clock () -. et0 in
        Mutex.lock t.m;
        fulfill t j (fst resolved) out dt;
        Mutex.unlock t.m;
        next ()
  in
  next ()

(* ---- public API ---- *)

let create ?(obs = Obs.disabled) ?(clock = Timer.wall) ?oracle cfg =
  if cfg.queue_bound < 1 then
    invalid_arg "Serve.create: queue_bound must be >= 1";
  (match cfg.slo_ms with
  | Some s when not (Float.is_finite s && s > 0.) ->
      invalid_arg "Serve.create: slo_ms must be > 0"
  | _ -> ());
  if cfg.threads < 1 then invalid_arg "Serve.create: threads must be >= 1";
  if cfg.workers < 0 then invalid_arg "Serve.create: workers must be >= 0";
  if cfg.plan_cache < 0 then
    invalid_arg "Serve.create: plan_cache must be >= 0";
  if cfg.iterations < 1 then
    invalid_arg "Serve.create: iterations must be >= 1";
  let pool =
    if cfg.workers = 0 && cfg.threads > 1 then
      Some (Parallel.create ~threads:cfg.threads ())
    else None
  in
  let oracle =
    match oracle with
    | Some o -> o
    | None ->
        Cost_oracle.of_model ~calibration:cfg.calibration ~obs
          (Granii_core.Cost_model.analytic cfg.profile)
  in
  (* normalize, as the engine does for injected resources: the stored config
     reflects the oracle actually in use *)
  let cfg = { cfg with calibration = Cost_oracle.calibration oracle } in
  let t =
    { cfg;
      obs;
      clock;
      oracle;
      pool;
      pc = Plan_cache.create ~obs ~capacity:cfg.plan_cache ();
      graphs = Hashtbl.create 8;
      models = Hashtbl.create 8;
      params = Hashtbl.create 16;
      tenants = Hashtbl.create 8;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      domains = [];
      next_id = 0;
      shutting = false;
      shut_done = false;
      submitted = 0;
      completed = 0;
      rejected = 0;
      slo_breaches = 0;
      first_breach = None;
      oracle_name = Cost_oracle.name oracle }
  in
  t.domains <-
    List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* Registration derives the graph's memoized operands (fingerprint and
   the plan operands) outside the lock, so no request pays for them. *)
let register_graph t ~name graph =
  ignore (Graph.fingerprint graph : string);
  Graph.build_plan_operands graph;
  locked t (fun () ->
      if Hashtbl.mem t.graphs name then
        invalid_arg
          (Printf.sprintf "Serve.register_graph: %s already registered" name);
      Hashtbl.replace t.graphs name { graph; feats = None })

let tenant_of t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ten -> ten
  | None ->
      let ten =
        { tname = name;
          queue = Queue.create ();
          busy = false;
          ws = Workspace.create ();
          latency = Obs.Histogram.create ();
          tdrift = Obs.Drift.create ~min_samples:32 ("serve.p99:" ^ name) }
      in
      Hashtbl.replace t.tenants name ten;
      ten

let submit t ~tenant ~graph ~model ~k_out ~features =
  if k_out < 1 then invalid_arg "Serve.submit: k_out must be >= 1";
  (try ignore (Mp.Mp_models.find model)
   with Not_found ->
     invalid_arg (Printf.sprintf "Serve.submit: unknown model %s" model));
  locked t (fun () ->
      let ge =
        match Hashtbl.find_opt t.graphs graph with
        | Some ge -> ge
        | None ->
            invalid_arg
              (Printf.sprintf "Serve.submit: unregistered graph %s" graph)
      in
      if features.Dense.rows <> Graph.n_nodes ge.graph then
        invalid_arg
          (Printf.sprintf
             "Serve.submit: feature rows %d do not match graph %s (%d nodes)"
             features.Dense.rows graph (Graph.n_nodes ge.graph));
      if t.shutting then begin
        t.rejected <- t.rejected + 1;
        Obs.count t.obs "serve.requests.rejected" 1;
        Error Shutdown
      end
      else begin
        let ten = tenant_of t tenant in
        if Queue.length ten.queue >= t.cfg.queue_bound then begin
          t.rejected <- t.rejected + 1;
          Obs.count t.obs "serve.requests.rejected" 1;
          Obs.event t.obs Obs.Journal.Backpressure ~tag:tenant
            ~v:(float_of_int t.cfg.queue_bound);
          Error (Queue_full { tenant; bound = t.cfg.queue_bound })
        end
        else begin
          let id = t.next_id in
          t.next_id <- id + 1;
          let p =
            { id;
              powner = ten;
              gentry = ge;
              model;
              k_in = features.Dense.cols;
              k_out;
              features;
              t_submit = t.clock ();
              ticket = { result = None } }
          in
          Queue.push p ten.queue;
          t.submitted <- t.submitted + 1;
          Obs.count t.obs "serve.requests.submitted" 1;
          depth_gauge t ten;
          Condition.signal t.work_cv;
          Ok p.ticket
        end
      end)

let poll t (ticket : ticket) = locked t (fun () -> ticket.result)

let pump t =
  if t.cfg.workers > 0 then
    invalid_arg "Serve.pump: manual mode only (workers = 0)";
  locked t (fun () ->
      match pick t with
      | None -> false
      | Some j ->
          let resolved = resolve t j in
          let et0 = t.clock () in
          let out =
            Obs.span t.obs "serve.exec" (fun () ->
                execute ?pool:t.pool ~locality:t.cfg.locality j resolved)
          in
          let dt = t.clock () -. et0 in
          fulfill t j (fst resolved) out dt;
          true)

let drain t = while pump t do () done

let await t (ticket : ticket) =
  if t.cfg.workers = 0 then begin
    let rec go () =
      match poll t ticket with
      | Some r -> r
      | None ->
          if pump t then go ()
          else
            invalid_arg
              "Serve.await: pending ticket but every queue is empty"
    in
    go ()
  end
  else
    locked t (fun () ->
        while ticket.result = None do
          Condition.wait t.done_cv t.m
        done;
        Option.get ticket.result)

let queue_depth t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | Some ten -> Queue.length ten.queue
      | None -> 0)

let shutdown t =
  let was_done =
    locked t (fun () ->
        if t.shut_done then true
        else begin
          t.shutting <- true;
          Condition.broadcast t.work_cv;
          false
        end)
  in
  if not was_done then begin
    if t.cfg.workers > 0 then begin
      List.iter Domain.join t.domains;
      t.domains <- []
    end
    else drain t;
    locked t (fun () -> t.shut_done <- true);
    Option.iter Parallel.shutdown t.pool
  end

let workers t = t.cfg.workers

let graph_nodes t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.graphs name with
      | Some ge -> Graph.n_nodes ge.graph
      | None ->
          invalid_arg
            (Printf.sprintf "Serve.graph_nodes: unregistered graph %s" name))

let stats t =
  locked t (fun () ->
      { submitted = t.submitted;
        completed = t.completed;
        rejected = t.rejected;
        batches = t.completed;
        sum_width = t.completed;
        plan_cache = Plan_cache.stats t.pc;
        slo_breaches = t.slo_breaches;
        first_breach = t.first_breach })

let obs t = t.obs

let serve_oracle t = t.oracle

let tenant_latency t name q =
  locked t (fun () ->
      match Hashtbl.find_opt t.tenants name with
      | Some ten -> Obs.Histogram.quantile ten.latency q
      | None -> Float.nan)

let latency_histogram t =
  locked t (fun () ->
      Obs.Histogram.merge_all
        (Hashtbl.fold (fun _ ten acc -> ten.latency :: acc) t.tenants []))

(* The single-threaded reference path: same parameters, same (deterministic)
   selection, a plain sequential engine, no queues and no counter traffic. *)
let oracle t ~graph ~model ~k_out ~features =
  let ge, plan, params =
    locked t (fun () ->
        let ge =
          match Hashtbl.find_opt t.graphs graph with
          | Some ge -> ge
          | None ->
              invalid_arg
                (Printf.sprintf "Serve.oracle: unregistered graph %s" graph)
        in
        let k_in = features.Dense.cols in
        let _, compiled = model_entry t model in
        let feats = feats_of ge in
        let n = Graph.n_nodes ge.graph in
        let env = { Dim.n; nnz = Graph.n_edges ge.graph + n; k_in; k_out } in
        let lc =
          Selector.select_localized ~oracle:t.oracle ~feats ~env
            ~iterations:t.cfg.iterations ~configs:[ t.cfg.locality ]
            compiled
        in
        ( ge,
          lc.Selector.lchoice.Selector.candidate.Codegen.plan,
          params_for t ge ~model ~k_in ~k_out ))
  in
  let bindings = Layer.bindings ~graph:ge.graph ~h:features params in
  let r =
    Executor.exec
      ~engine:(Engine.default ())
      ~timing:Executor.Measure ~graph:ge.graph ~bindings plan
  in
  r.Executor.output
