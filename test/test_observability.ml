(* The continuous-observability layer (DESIGN.md §16): journal ring
   semantics (wrap-around accounting, concurrent multi-domain writers, the
   JSONL drain schema), histogram quantiles against exact ones on known
   distributions and as qcheck properties (the stated error bound, exact
   merge, the exporters' decade rule), drift-detector firing and silence,
   drift-triggered out-of-cadence oracle calibration, the full serving
   causal chain —
   drift -> accepted calibration -> version bump -> plan-cache
   invalidation — read back from one drained journal, and the differential
   proving an enabled journal never changes executor outputs. *)

open Granii_core
open Test_util
module Obs = Granii_obs.Obs
module Journal = Obs.Journal
module Histogram = Obs.Histogram
module Drift = Obs.Drift
module Metrics = Obs.Metrics
module Prng = Granii_tensor.Prng
module Dense = Granii_tensor.Dense
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn
module Serve = Granii_serve.Serve

(* ---- the journal ring ---- *)

let test_journal_wraparound () =
  let j = Journal.create ~capacity:16 () in
  check_int "configured capacity" 16 (Journal.capacity j);
  for i = 0 to 39 do
    Journal.record j Journal.Mark ~tag:"m" ~v:(float_of_int i)
  done;
  check_int "every record counted" 40 (Journal.total j);
  check_int "overwritten records counted as dropped" 24 (Journal.dropped j);
  let es = Journal.entries j in
  check_int "the ring holds exactly its capacity" 16 (List.length es);
  (* survivors are the newest 16, sequence numbers contiguous — the drain
     shows exactly which records were lost *)
  List.iteri
    (fun i e ->
      check_int "monotonic contiguous sequence numbers" (24 + i)
        e.Journal.e_seq;
      check_float "payload rides along" ~eps:0.
        (float_of_int (24 + i))
        e.Journal.e_v;
      check_true "kind survives the ring" (e.Journal.e_kind = Journal.Mark))
    es;
  (match Journal.kind_counts j with
  | [ ("mark", 16) ] -> ()
  | l ->
      Alcotest.fail
        (Printf.sprintf "kind_counts: expected 16 marks, got %d families"
           (List.length l)));
  (* the drain format: one RFC 8259 object per line carrying the schema *)
  String.split_on_char '\n' (Journal.to_jsonl j)
  |> List.iter (fun line ->
         if String.trim line <> "" then
           match Obs.Json.parse line with
           | Error e -> Alcotest.fail ("journal line not JSON: " ^ e)
           | Ok v ->
               List.iter
                 (fun f ->
                   if Obs.Json.member f v = None then
                     Alcotest.fail ("journal line missing field " ^ f))
                 [ "seq"; "domain"; "t"; "kind"; "tag"; "v" ])

let test_journal_multidomain () =
  let j = Journal.create ~capacity:256 () in
  let per = 100 in
  let work () =
    for i = 0 to per - 1 do
      Journal.record j Journal.Step ~tag:"d" ~v:(float_of_int i)
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn work) in
  work () (* the main domain writes concurrently with the spawned three *);
  List.iter Domain.join ds;
  check_int "no event lost below capacity" (4 * per) (Journal.total j);
  check_int "nothing dropped below capacity" 0 (Journal.dropped j);
  let es = Journal.entries j in
  check_int "every record drained" (4 * per) (List.length es);
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let prev =
        match Hashtbl.find_opt tbl e.Journal.e_domain with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace tbl e.Journal.e_domain (e.Journal.e_seq :: prev))
    es;
  check_int "four writer domains, one ring each" 4 (Hashtbl.length tbl);
  Hashtbl.iter
    (fun _ seqs ->
      check_true "per-domain sequences are 0..n-1 with no gaps"
        (List.sort compare seqs = List.init per (fun i -> i)))
    tbl

(* ---- log-bucketed histograms ---- *)

(* Nearest-rank exact quantile over the full sample. *)
let exact_quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) i))

let histogram_of xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  h

let test_histogram_basics () =
  check_true "64 sub-buckets per decade: under 3.7% worst-case error"
    (Histogram.sub_buckets = 64 && Histogram.rel_error < 0.037);
  let h = Histogram.create () in
  check_true "empty histogram reports nan"
    (Float.is_nan (Histogram.quantile h 0.5));
  List.iter (Histogram.add h) [ 3.; 1.; 2. ];
  check_int "count" 3 (Histogram.count h);
  check_float "sum" ~eps:0. 6. (Histogram.sum h);
  check_float "minimum" ~eps:0. 1. (Histogram.minimum h);
  check_float "maximum" ~eps:0. 3. (Histogram.maximum h);
  Histogram.add h nan (* ignored *);
  Histogram.add h infinity;
  check_int "non-finite samples are ignored" 3 (Histogram.count h);
  check_float "a single sample is its every quantile" ~eps:0. 0.25
    (Histogram.quantile (histogram_of [ 0.25 ]) 0.99)

(* Regression pins on a deterministic stream, flat and heavy-tailed. Both
   tolerances sit above Histogram.rel_error, so a failure here means the
   stated bound broke. *)
let test_histogram_accuracy () =
  let n = 4000 in
  let rng = Prng.create 42 in
  let run dist rel_tol quantiles =
    let h = Histogram.create () in
    let samples = ref [] in
    for _ = 1 to n do
      let x = dist rng in
      samples := x :: !samples;
      Histogram.add h x
    done;
    check_int "all samples counted" n (Histogram.count h);
    List.iter
      (fun q ->
        let est = Histogram.quantile h q and exact = exact_quantile !samples q in
        let rel = Float.abs (est -. exact) /. Float.max exact 1e-9 in
        if rel > rel_tol then
          Alcotest.fail
            (Printf.sprintf "q=%.2f: histogram %.4f vs exact %.4f (%.1f%% off)"
               q est exact (100. *. rel)))
      quantiles
  in
  (* uniform [1, 2): smooth and flat, the friendly case *)
  run (fun rng -> Prng.uniform rng 1. 2.) 0.05 [ 0.5; 0.9; 0.95; 0.99 ];
  (* exponential: a heavy right tail, the serving-latency shape *)
  run
    (fun rng -> -.log (1. -. Prng.uniform rng 0. 0.999999))
    0.15 [ 0.5; 0.9; 0.95; 0.99 ]

let test_histogram_merge () =
  let rng = Prng.create 7 in
  let a = Histogram.create () and b = Histogram.create () in
  for _ = 1 to 1000 do
    Histogram.add a (Prng.uniform rng 0. 1.);
    Histogram.add b (Prng.uniform rng 1. 2.)
  done;
  let m = Histogram.merge a b in
  check_true "inputs are not mutated"
    (Histogram.count a = 1000 && Histogram.count b = 1000);
  check_int "merged count is exact" 2000 (Histogram.count m);
  check_true "merged median sits between the two populations"
    (let p50 = Histogram.quantile m 0.5 in
     p50 > 0.8 && p50 < 1.2);
  check_true "merged extremes span both inputs"
    (Histogram.minimum m < 0.1 && Histogram.maximum m > 1.9);
  check_true "singleton merge_all answers like its input"
    (Histogram.quantile (Histogram.merge_all [ a ]) 0.5
    = Histogram.quantile a 0.5);
  check_int "empty merge_all is an empty histogram" 0
    (Histogram.count (Histogram.merge_all []))

(* Samples for the properties: log-uniform over [1e-9, 1e3] (so below
   1e-6 and above 10 too), exact sub-bucket and decade bounds, and a point
   mass repeated up to 60 times; sizes down to n = 1. *)
let decades = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10. |]

let samples_gen =
  let open QCheck2.Gen in
  let k = Histogram.sub_buckets in
  let sample =
    oneof
      [ map (fun e -> 10. ** e) (float_range (-9.) 3.);
        map
          (fun i ->
            if i mod k = 0 then decades.(i / k)
            else 10. ** (-6. +. (float_of_int i /. float_of_int k)))
          (int_range 0 (7 * k));
        oneofl [ 0.; 1e-7; 11. ] ]
  in
  let* xs = list_size (frequency [ (1, return 0); (3, int_range 0 100) ]) sample in
  let* mass = sample in
  let* reps = frequency [ (1, return 1); (1, return 0); (2, int_range 2 60) ] in
  let xs = List.init reps (fun _ -> mass) @ xs in
  return (if xs = [] then [ mass ] else xs)

let probes = [ 0.; 0.001; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1. ]

let test_histogram_quantile_bound =
  qtest ~count:300 "histogram quantile within the stated bound"
    QCheck2.Gen.(pair samples_gen (float_range 0. 1.))
    (fun (xs, q) ->
      let h = histogram_of xs in
      List.for_all
        (fun q ->
          let v = exact_quantile xs q and est = Histogram.quantile h q in
          if v > 1e-6 && v <= 10. then
            Float.abs (est -. v) <= (Histogram.rel_error +. 1e-12) *. v
          else if v <= 1e-6 then Histogram.minimum h <= est && est <= 1e-6
          else 10. <= est && est <= Histogram.maximum h)
        (q :: probes))

let test_histogram_merge_exact =
  qtest ~count:200 "histogram merge equals the concatenated samples"
    QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let m = Histogram.merge (histogram_of xs) (histogram_of ys)
      and c = histogram_of (xs @ ys) in
      Histogram.count m = Histogram.count c
      && Histogram.minimum m = Histogram.minimum c
      && Histogram.maximum m = Histogram.maximum c
      && Histogram.decade_counts m = Histogram.decade_counts c
      && List.for_all
           (fun q -> Histogram.quantile m q = Histogram.quantile c q)
           probes
      && Float.abs (Histogram.sum m -. Histogram.sum c)
         <= 1e-9 *. Histogram.sum c)

(* The decade rule the registry's exporters always printed: the first
   bound [v <= bound], else the overflow slot. *)
let test_histogram_decade_export =
  qtest ~count:200 "histogram decade export keeps the decade rule"
    samples_gen
    (fun xs ->
      let want = Array.make (Array.length decades + 1) 0 in
      List.iter
        (fun v ->
          let rec slot i =
            if i >= Array.length decades || v <= decades.(i) then i
            else slot (i + 1)
          in
          let i = slot 0 in
          want.(i) <- want.(i) + 1)
        xs;
      let want = Array.to_list want in
      let m = Metrics.create () in
      List.iter (Metrics.observe m "h") xs;
      let exported =
        let ( let* ) = Option.bind in
        let* v = Result.to_option (Obs.Json.parse (Metrics.to_json m)) in
        let* hs = Obs.Json.member "histograms" v in
        let* h = Obs.Json.member "h" hs in
        match Obs.Json.member "buckets" h with
        | Some (Obs.Json.List l) ->
            Some
              (List.map
                 (function Obs.Json.Num f -> int_of_float f | _ -> -1)
                 l)
        | _ -> None
      in
      List.map snd (Histogram.decade_counts (histogram_of xs)) = want
      && exported = Some want)

(* ---- drift detectors ---- *)

let test_drift_detector () =
  (* stationary noise must never fire the default detector *)
  let rng = Prng.create 9 in
  let d = Drift.create "noise" in
  for _ = 1 to 2000 do
    if Drift.observe d (0.1 +. Prng.uniform rng (-0.05) 0.05) then
      Alcotest.fail "Page-Hinkley fired on stationary noise"
  done;
  check_int "silent on stationary noise" 0 (Drift.fired d);
  (* a sustained upward trend must fire it *)
  let d2 = Drift.create "trend" in
  for i = 1 to 600 do
    ignore
      (Drift.observe d2
         (0.1
         +. (3. *. float_of_int i /. 600.)
         +. Prng.uniform rng (-0.05) 0.05))
  done;
  check_true "fires on a sustained trend" (Drift.fired d2 >= 1);
  (* the sustained-level test: wrong from the start, no trend at all *)
  let d3 =
    Drift.create ~level:0.5 ~patience:8 ~min_samples:8 ~lambda:infinity
      "level"
  in
  for _ = 1 to 100 do
    ignore (Drift.observe d3 1.0)
  done;
  check_true "level test fires on a constant-high stream" (Drift.fired d3 >= 1);
  let d4 =
    Drift.create ~level:0.5 ~patience:8 ~min_samples:8 ~lambda:infinity
      "quiet"
  in
  for _ = 1 to 100 do
    ignore (Drift.observe d4 0.2)
  done;
  check_int "level test silent below the level" 0 (Drift.fired d4);
  (* min_samples gates both tests *)
  let d5 =
    Drift.create ~level:0.1 ~patience:1 ~min_samples:50 ~lambda:infinity
      "gated"
  in
  for _ = 1 to 49 do
    if Drift.observe d5 10. then Alcotest.fail "fired before min_samples"
  done;
  check_int "no firing before min_samples" 0 (Drift.fired d5);
  check_true "samples are counted" (Drift.samples d5 = 49);
  check_true "non-finite observations are ignored"
    (not (Drift.observe d5 nan) && Drift.samples d5 = 49)

(* ---- drift-triggered out-of-cadence calibration (the oracle loop) ---- *)

let test_drift_triggered_calibration () =
  let obs = Obs.create ~trace:false ~costmon:false () in
  (* fit_every is effectively infinite: only the drift detector can start a
     calibration pass here *)
  let drift =
    Drift.create ~level:0.3 ~patience:4 ~min_samples:4 ~lambda:infinity
      "oracle.logerr"
  in
  let oracle =
    Cost_oracle.of_model ~calibration:Cost_oracle.Affine
      ~fit_every:1_000_000 ~obs ~drift
      (Cost_model.analytic Granii_hw.Hw_profile.cpu)
  in
  check_int "pristine oracle" 0 (Cost_oracle.version oracle);
  (* a consistent 8x misprediction: |log err| ~ 2.08, far above the level *)
  for i = 1 to 64 do
    let p = 1e-3 *. (1. +. (float_of_int i /. 64.)) in
    Cost_oracle.observe oracle ~prim:"spmm" ~predicted:p ~measured:(8. *. p)
  done;
  let m = match obs.Obs.metrics with Some m -> m | None -> assert false in
  check_true "the drift detector fired"
    (Metrics.counter_value m "calibrate.drift.fired" >= 1);
  check_true "a calibration pass ran without waiting for fit_every"
    (Metrics.counter_value m "calibrate.passes" >= 1);
  check_true "the pass was accepted: version bumped"
    (Cost_oracle.version oracle >= 1);
  check_true "the accepted correction quiets the stream"
    (Float.abs (log (Cost_oracle.corrected oracle ~prim:"spmm" 1e-3 /. 8e-3))
    < 0.3);
  (* journal ordering: drift precedes the accepted calibrate event *)
  let j = match obs.Obs.journal with Some j -> j | None -> assert false in
  let es = Journal.entries j in
  let index_of pred =
    let rec go i = function
      | [] -> None
      | e :: tl -> if pred e then Some i else go (i + 1) tl
    in
    go 0 es
  in
  match
    ( index_of (fun e -> e.Journal.e_kind = Journal.Drift),
      index_of (fun e ->
          e.Journal.e_kind = Journal.Calibrate && e.Journal.e_tag = "accepted")
    )
  with
  | Some di, Some ci ->
      check_true "drift event precedes the accepted calibrate event" (di < ci)
  | _ -> Alcotest.fail "journal must hold drift and accepted-calibrate events"

(* ---- the serving causal chain, end to end ---- *)

(* A server anchored to an H100 profile while executing on the host CPU:
   predictions are wrong from the first request, with no trend — exactly
   the case the sustained-level test exists for. The chain the issue
   demands must be readable from ONE drained journal: drift fires ->
   calibration pass accepted -> oracle version bump -> plan-cache
   invalidation on the next selection. *)
let test_serve_drift_chain () =
  let obs = Obs.create ~trace:false ~journal_capacity:4096 () in
  let drift =
    Drift.create ~level:0.3 ~patience:4 ~min_samples:4 ~lambda:infinity
      "oracle.logerr"
  in
  let oracle =
    Cost_oracle.of_model ~calibration:Cost_oracle.Affine
      ~fit_every:1_000_000 ~obs ~drift
      (Cost_model.analytic Granii_hw.Hw_profile.h100)
  in
  let cfg =
    { Serve.default_config with
      profile = Granii_hw.Hw_profile.h100;
      slo_ms = Some 1e-4 (* sub-microsecond: every completion breaches *) }
  in
  let server = Serve.create ~obs ~oracle cfg in
  Fun.protect
    ~finally:(fun () -> Serve.shutdown server)
    (fun () ->
      (* large enough that the CPU's kernel work, not fixed per-request
         overhead, is what the H100 profile mispredicts: on a tiny graph
         both sides are a few launch-sized tens of microseconds *)
      let graph = G.Generators.erdos_renyi ~n:1000 ~avg_degree:4. ~seed:2 () in
      Serve.register_graph server ~name:"g" graph;
      let n = G.Graph.n_nodes graph in
      let requests = 30 in
      for i = 0 to requests - 1 do
        let features = Dense.random ~seed:(100 + i) n 8 in
        match
          Serve.submit server ~tenant:"t0" ~graph:"g" ~model:"gcn" ~k_out:4
            ~features
        with
        | Ok ticket -> ignore (Serve.await server ticket)
        | Error r -> Alcotest.fail (Serve.reject_to_string r)
      done;
      let m = match obs.Obs.metrics with Some m -> m | None -> assert false in
      check_true "drift fired under the mis-anchored profile"
        (Metrics.counter_value m "calibrate.drift.fired" >= 1);
      check_true "the out-of-cadence calibration was accepted"
        (Cost_oracle.version (Serve.serve_oracle server) >= 1);
      (* the causal chain, in order, in one journal *)
      let j = match obs.Obs.journal with Some j -> j | None -> assert false in
      let es = Journal.entries j in
      let index_of pred =
        let rec go i = function
          | [] -> None
          | e :: tl -> if pred e then Some i else go (i + 1) tl
        in
        go 0 es
      in
      (match
         ( index_of (fun e -> e.Journal.e_kind = Journal.Drift),
           index_of (fun e ->
               e.Journal.e_kind = Journal.Calibrate
               && e.Journal.e_tag = "accepted"),
           index_of (fun e ->
               e.Journal.e_kind = Journal.Plan_cache_invalidate) )
       with
      | Some di, Some ci, Some ii ->
          check_true "drift -> calibrate" (di < ci);
          check_true "calibrate -> plan-cache invalidation" (ci < ii)
      | d, c, i ->
          Alcotest.fail
            (Printf.sprintf
               "chain incomplete: drift=%b calibrate.accepted=%b \
                invalidate=%b"
               (d <> None) (c <> None) (i <> None)));
      (* SLO accounting: the absurd target makes every completion a breach *)
      let s = Serve.stats server in
      check_int "every completion breached the SLO" requests
        s.Serve.slo_breaches;
      check_true "first breach timestamped" (s.Serve.first_breach <> None);
      check_int "breach counter agrees" requests
        (Metrics.counter_value m "serve.slo.breaches");
      check_true "breach events journaled"
        (List.exists (fun e -> e.Journal.e_kind = Journal.Slo_breach) es);
      (* streaming latency state is queryable per tenant and server-wide *)
      check_int "every completion in the merged histogram" requests
        (Histogram.count (Serve.latency_histogram server));
      check_true "tenant quantile answers"
        (Serve.tenant_latency server "t0" 0.5 > 0.);
      check_true "unknown tenant reports nan"
        (Float.is_nan (Serve.tenant_latency server "nobody" 0.5)))

(* ---- the journal is bitwise invisible ---- *)

let compiled_gcn =
  lazy
    (let m = Mp.Mp_models.find "GCN" in
     let low = Mp.Lower.lower m in
     let compiled, _ =
       Granii.compile ~name:"GCN"
         ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
         low.Mp.Lower.ir
     in
     (low, compiled))

let test_journal_bitwise_invisible () =
  let low, compiled = Lazy.force compiled_gcn in
  let graph = G.Generators.erdos_renyi ~n:150 ~avg_degree:6. ~seed:3 () in
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in = 9; k_out = 7 } in
  let params = Gnn.Layer.init_params ~seed:5 ~env low in
  let h = Dense.random ~seed:6 n 9 in
  let bindings = Gnn.Layer.bindings ~graph ~h params in
  let plan = (List.hd compiled.Codegen.candidates).Codegen.plan in
  let reference =
    Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph
      ~bindings plan
  in
  let obs = Obs.create ~trace:false ~costmon:false () in
  let engine = Engine.create_exn ~obs Engine.default_config in
  let r =
    Executor.exec ~engine ~timing:Executor.Measure ~graph ~bindings plan
  in
  check_true "journal+metrics output is bitwise identical"
    (Test_engine.value_bits_equal reference.Executor.output r.Executor.output);
  (match obs.Obs.journal with
  | Some j -> check_true "the journal actually recorded" (Journal.total j > 0)
  | None -> Alcotest.fail "sink should carry a journal by default")

(* The [gc.major_words] gauge tracks the run: it lies between the calling
   domain's exact major-heap words read just before and just after the run,
   also when a known major-heap allocation came right before it (a float
   array past the minor heap's size limit is allocated directly on the
   major heap). [Gc.quick_stat]'s OCaml 5 figure lands outside the
   bracket: it adds every domain's words (pool domains, finished ones
   too), each as sampled at its last minor collection. *)
let test_gc_gauge_tracks_runs () =
  let low, compiled = Lazy.force compiled_gcn in
  let graph = G.Generators.erdos_renyi ~n:150 ~avg_degree:6. ~seed:3 () in
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in = 9; k_out = 7 } in
  let params = Gnn.Layer.init_params ~seed:5 ~env low in
  let bindings = Gnn.Layer.bindings ~graph ~h:(Dense.random ~seed:6 n 9) params in
  let plan = (List.hd compiled.Codegen.candidates).Codegen.plan in
  let obs = Obs.create ~trace:false ~costmon:false () in
  let engine = Engine.create_exn ~obs Engine.default_config in
  let m = Option.get obs.Obs.metrics in
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  let run () =
    ignore (Executor.exec ~engine ~timing:Executor.Measure ~graph ~bindings plan
            : Executor.report)
  in
  run ();
  for round = 1 to 3 do
    let w0 = major_words () in
    (* ten arrays of 10k floats, each past the minor heap's size limit *)
    for _ = 1 to 10 do
      ignore (Sys.opaque_identity (Array.make 10_000 0.) : float array)
    done;
    let lo = major_words () in
    check_true "the arrays went to the major heap" (lo -. w0 >= 100_000.);
    run ();
    let hi = major_words () in
    let gauge = Option.get (Metrics.gauge_value m "gc.major_words") in
    check_true
      (Printf.sprintf "round %d: %.0f <= gauge %.0f <= %.0f" round lo gauge hi)
      (lo <= gauge && gauge <= hi)
  done

(* ---- exporter details the CI checker depends on ---- *)

let test_labeled_prometheus () =
  check_true "escape_label_value"
    (String.equal
       (Metrics.escape_label_value "a\"b\\c\nd")
       "a\\\"b\\\\c\\nd");
  let m = Metrics.create () in
  Metrics.set_gauge_labeled m "serve.latency.p50"
    ~labels:[ ("tenant", "a\"b\\c\nd") ]
    0.5;
  Metrics.set_gauge_labeled m "hits"
    ~labels:[ ("model", "gcn"); ("graph", "g") ]
    3.;
  Metrics.add m "plain" 1;
  let text = Metrics.to_prometheus m in
  check_true "HELP announced for the labeled family"
    (contains text "# HELP granii_serve_latency_p50");
  check_true "TYPE announced for the labeled family"
    (contains text "# TYPE granii_serve_latency_p50 gauge");
  check_true "TYPE announced for the plain counter"
    (contains text "# TYPE granii_plain counter");
  check_true "label values escaped per the exposition format"
    (contains text "tenant=\"a\\\"b\\\\c\\nd\"");
  check_true "labels render sorted regardless of call order"
    (contains text "granii_hits{graph=\"g\",model=\"gcn\"} 3");
  (* label order must not split the series *)
  Metrics.set_gauge_labeled m "hits"
    ~labels:[ ("graph", "g"); ("model", "gcn") ]
    5.;
  let text = Metrics.to_prometheus m in
  check_true "same label set in any order addresses one series"
    (contains text "granii_hits{graph=\"g\",model=\"gcn\"} 5"
    && not (contains text "granii_hits{graph=\"g\",model=\"gcn\"} 3"))

let test_json_parse () =
  (match Obs.Json.parse "{\"a\": [1, true, \"x\"], \"b\": null}" with
  | Error e -> Alcotest.fail e
  | Ok v ->
      (match Obs.Json.member "a" v with
      | Some (Obs.Json.List [ Obs.Json.Num 1.; Obs.Json.Bool true; Obs.Json.Str "x" ]) ->
          ()
      | _ -> Alcotest.fail "member a");
      check_true "null member" (Obs.Json.member "b" v = Some Obs.Json.Null);
      check_true "missing member" (Obs.Json.member "c" v = None));
  check_true "garbage rejected"
    (match Obs.Json.parse "{\"a\": }" with Error _ -> true | Ok _ -> false)

let suite =
  [ Alcotest.test_case "journal wrap-around accounting" `Quick
      test_journal_wraparound;
    Alcotest.test_case "journal multi-domain interleaving" `Quick
      test_journal_multidomain;
    Alcotest.test_case "histogram empty, count, min, max" `Quick
      test_histogram_basics;
    Alcotest.test_case "histogram accuracy on known distributions" `Quick
      test_histogram_accuracy;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    test_histogram_quantile_bound;
    test_histogram_merge_exact;
    test_histogram_decade_export;
    Alcotest.test_case "drift detector firing and silence" `Quick
      test_drift_detector;
    Alcotest.test_case "drift triggers out-of-cadence calibration" `Quick
      test_drift_triggered_calibration;
    Alcotest.test_case "serving drift causal chain in one journal" `Slow
      test_serve_drift_chain;
    Alcotest.test_case "journal is bitwise invisible" `Quick
      test_journal_bitwise_invisible;
    Alcotest.test_case "gc.major_words gauge tracks the run" `Quick
      test_gc_gauge_tracks_runs;
    Alcotest.test_case "prometheus labels, HELP and TYPE" `Quick
      test_labeled_prometheus;
    Alcotest.test_case "json reader" `Quick test_json_parse ]
