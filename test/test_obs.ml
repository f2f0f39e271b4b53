(* The observability subsystem: span recorder semantics (nesting, balance
   under exceptions, retro-dated durations), exporter well-formedness,
   metrics bookkeeping, the cost-monitor pair store and its accuracy
   report, the two-clock timer, and the engine-level
   guarantees — a disabled sink is bitwise invisible, a live one
   reconciles its spans with the executor's report. *)

open Granii_core
open Test_util
module Obs = Granii_obs.Obs
module Trace = Obs.Trace
module Metrics = Obs.Metrics
module Cm = Obs.Cost_monitor
module Timer = Granii_hw.Timer
module G = Granii_graph
module Mp = Granii_mp
module Gnn = Granii_gnn
module Dense = Granii_tensor.Dense

let graph () = G.Generators.erdos_renyi ~n:150 ~avg_degree:6. ~seed:3 ()

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

let setup ~k_in ~k_out =
  let low, compiled = Lazy.force compiled_gcn in
  let graph = graph () in
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out } in
  let params = Gnn.Layer.init_params ~seed:5 ~env low in
  let h = Dense.random ~seed:6 n k_in in
  let bindings = Gnn.Layer.bindings ~graph ~h params in
  let plan = (List.hd compiled.Codegen.candidates).Codegen.plan in
  (graph, bindings, plan)

(* ---- span recorder ---- *)

let test_span_nesting () =
  let t = Trace.create () in
  let a = Trace.enter t "a" in
  let b = Trace.enter t ~cat:"inner" "b" in
  let c = Trace.enter t "c" in
  check_int "three open spans" 3 (Trace.open_spans t);
  (* closing b must close the still-open descendant c first *)
  Trace.exit_ t b;
  check_int "b's exit closed c too" 1 (Trace.open_spans t);
  Trace.exit_ t a;
  check_int "balanced" 0 (Trace.open_spans t);
  check_int "three spans recorded" 3 (Trace.count t);
  (* double-exit is a no-op *)
  Trace.exit_ t c;
  Trace.exit_ t a;
  check_int "double exit records nothing" 3 (Trace.count t);
  check_int "double exit opens nothing" 0 (Trace.open_spans t)

let test_span_exception_balance () =
  let t = Trace.create () in
  (try
     Trace.with_span t "outer" (fun () ->
         Trace.with_span t "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_int "balanced after exception" 0 (Trace.open_spans t);
  check_int "both spans recorded" 2 (Trace.count t);
  check_true "the error is attributed"
    (let json = Trace.to_chrome_json t in
     let rec contains i =
       i + 5 <= String.length json
       && (String.sub json i 5 = "error" || contains (i + 1))
     in
     contains 0)

let test_span_dur_override () =
  let t = Trace.create () in
  let sp = Trace.enter t "work" in
  Trace.exit_ t ~dur:0.25 sp;
  match Trace.aggregate t with
  | [ ("work", 1, total) ] ->
      check_float "retro-dated duration" ~eps:1e-12 0.25 total
  | _ -> Alcotest.fail "aggregate shape"

let test_exporters_wellformed () =
  let t = Trace.create () in
  Trace.with_span t ~attrs:[ ("weird", "a\"b\\c\nd") ] "root" (fun () ->
      Trace.with_span t "child" (fun () -> ());
      Trace.with_span t "child" (fun () -> ()));
  (match Obs.Json.validate (Trace.to_chrome_json t) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("chrome trace JSON: " ^ e));
  let folded = Trace.to_folded t in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' folded)
  in
  check_int "two distinct stacks" 2 (List.length lines);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.fail ("folded line without self time: " ^ line)
      | Some sp ->
          let self = String.sub line (sp + 1) (String.length line - sp - 1) in
          check_true "self time is a non-negative integer"
            (match int_of_string_opt self with Some n -> n >= 0 | None -> false))
    lines;
  check_true "the child stack is root;child"
    (List.exists
       (fun l -> String.length l > 10 && String.sub l 0 10 = "root;child")
       lines)

(* ---- metrics registry ---- *)

let test_metrics_bookkeeping () =
  let m = Metrics.create () in
  Metrics.add m "c" 2;
  Metrics.add m "c" 3;
  Metrics.set_gauge m "g" 1.5;
  Metrics.set_gauge m "g" 2.5;
  Metrics.observe m "h" 0.5e-3;
  Metrics.observe m "h" 2e-3;
  check_int "counter accumulates" 5 (Metrics.counter_value m "c");
  check_int "unknown counter is 0" 0 (Metrics.counter_value m "nope");
  (match Metrics.gauge_value m "g" with
  | Some v -> check_float "gauge keeps the last value" ~eps:0. 2.5 v
  | None -> Alcotest.fail "gauge missing");
  (match Metrics.hist_stats m "h" with
  | Some (count, sum, min_, max_) ->
      check_int "histogram count" 2 count;
      check_float "histogram sum" ~eps:1e-12 2.5e-3 sum;
      check_float "histogram min" ~eps:1e-12 0.5e-3 min_;
      check_float "histogram max" ~eps:1e-12 2e-3 max_
  | None -> Alcotest.fail "histogram missing");
  match Obs.Json.validate (Metrics.to_json m) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("metrics JSON: " ^ e)

let test_metrics_prometheus () =
  let m = Metrics.create () in
  Metrics.add m "cache.hits" 7;
  Metrics.set_gauge m "workspace.bytes.held" 4096.;
  Metrics.observe m "step.spmm" 3e-4;
  Metrics.observe m "step.spmm" 3e-2;
  let text = Metrics.to_prometheus m in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  check_true "sanitized counter line"
    (List.mem "granii_cache_hits 7" lines);
  check_true "gauge line" (List.mem "granii_workspace_bytes_held 4096" lines);
  check_true "histogram count line" (List.mem "granii_step_spmm_count 2" lines);
  check_true "+Inf bucket present"
    (List.exists
       (fun l ->
         String.length l > 0
         &&
         let rec find i =
           i + 4 <= String.length l
           && (String.sub l i 4 = "+Inf" || find (i + 1))
         in
         find 0)
       lines);
  (* cumulative bucket counts are monotone and end at the total count *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        if String.length l > 24 && String.sub l 0 24 = "granii_step_spmm_bucket{"
        then
          match String.rindex_opt l ' ' with
          | Some sp ->
              int_of_string_opt
                (String.sub l (sp + 1) (String.length l - sp - 1))
          | None -> None
        else None)
      lines
  in
  check_true "buckets are cumulative"
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length bucket_counts - 1) bucket_counts)
       (List.tl bucket_counts));
  check_int "last bucket equals count" 2
    (List.nth bucket_counts (List.length bucket_counts - 1))

(* ---- cost monitor ---- *)

let test_costmon_statistics () =
  let cm = Cm.create () in
  (* perfectly ranked but biased 2x: log error ln 2, no inversions *)
  Cm.record cm ~prim:"spmm" ~predicted:1. ~measured:2.;
  Cm.record cm ~prim:"spmm" ~predicted:2. ~measured:4.;
  Cm.record cm ~prim:"spmm" ~predicted:4. ~measured:8.;
  (* one clean inversion *)
  Cm.record cm ~prim:"gemm" ~predicted:1. ~measured:2.;
  Cm.record cm ~prim:"gemm" ~predicted:2. ~measured:1.;
  (* non-positive pairs are excluded from the statistics *)
  Cm.record cm ~prim:"degree" ~predicted:0. ~measured:1.;
  let r = Cm.report cm in
  (* pooled over gemm and spmm, gemm's (2, 1) inverts against both (1, 2)
     pairs: its own and spmm's *)
  check_int "pooled pairs" 5 r.Cm.pooled_pairs;
  check_int "pooled inversions across primitives" 2 r.Cm.pooled_inv;
  match r.Cm.per_prim with
  | [ d; g; s ] ->
      check_true "sorted by primitive"
        (d.Cm.rp_prim = "degree" && g.Cm.rp_prim = "gemm"
        && s.Cm.rp_prim = "spmm");
      check_int "spmm runs" 3 s.Cm.rp_runs;
      check_float "spmm mean |log err| is ln 2" ~eps:1e-12 (log 2.)
        s.Cm.rp_err;
      check_int "spmm has no inversions" 0 s.Cm.rp_inv;
      check_int "spmm compares all pairs" 3 s.Cm.rp_inv_pairs;
      check_int "gemm inversion counted" 1 g.Cm.rp_inv;
      check_int "gemm one comparable pair" 1 g.Cm.rp_inv_pairs;
      check_int "degree pair is recorded" 1 d.Cm.rp_runs;
      check_true "degree row holds no statistics"
        (d.Cm.rp_pairs = 0 && d.Cm.rp_inv_pairs = 0);
      check_int "runs of an unknown primitive" 0 (Cm.runs cm "nope")
  | l -> Alcotest.fail (Printf.sprintf "expected 3 rows, got %d" (List.length l))

(* The 4096-pair cap is a uniform reservoir (Algorithm R): below the cap
   every pair is held exactly and in recording order; past it, each later
   pair displaces a uniformly random held slot with probability cap/i, so
   the held set stays an unbiased subsample of the {e whole} stream rather
   than a sliding window. [n] still counts every recorded run. *)
let test_costmon_cap () =
  let cm = Cm.create () in
  for i = 1 to 4096 do
    Cm.record cm ~prim:"spmm" ~predicted:(float_of_int i)
      ~measured:(float_of_int i)
  done;
  check_int "exact below the cap" 4096
    (List.length (Cm.series_pairs cm "spmm"));
  Cm.record cm ~prim:"spmm" ~predicted:5000. ~measured:5000.;
  Cm.record cm ~prim:"spmm" ~predicted:6000. ~measured:6000.;
  let pairs = Cm.series_pairs cm "spmm" in
  check_int "the reservoir never exceeds the cap" 4096 (List.length pairs);
  check_true "held pairs are a subset of the stream"
    (List.for_all
       (fun (p, m) ->
         p = m && ((p >= 1. && p <= 4096.) || p = 5000. || p = 6000.))
       pairs);
  (* recording order is preserved (oldest first). With a strictly
     increasing stream that means strictly increasing values. *)
  let rec increasing = function
    | (a, _) :: ((b, _) :: _ as tl) -> a < b && increasing tl
    | _ -> true
  in
  check_true "held pairs stay in recording order" (increasing pairs);
  (match (Cm.report cm).Cm.per_prim with
  | [ s ] ->
      check_int "every run counted, sampled or not" 4098 s.Cm.rp_runs;
      check_float "identity predictions have zero error" ~eps:1e-12 0.
        s.Cm.rp_err;
      check_int "perfect ranking has no inversions" 0 s.Cm.rp_inv
  | l -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length l)));
  check_true "prims lists the primitive" (Cm.prims cm = [ "spmm" ])

(* ---- the JSON checker's rejection paths ---- *)

let test_json_validate_rejects () =
  let ok s =
    match Obs.Json.validate s with Ok () -> true | Error _ -> false
  in
  List.iter
    (fun s -> check_true ("accepts " ^ s) (ok s))
    [ "{}"; "[]"; "[1, -2.5e3, true, false, null]"; "{\"a\": [\"b\\n\"]}" ];
  List.iter
    (fun (name, s) ->
      match Obs.Json.validate s with
      | Ok () -> Alcotest.fail (name ^ ": accepted invalid JSON")
      | Error e ->
          check_true (name ^ ": error names the byte offset")
            (contains e "invalid JSON at byte"))
    [ ("empty input", "");
      ("bare garbage", "granii");
      ("unterminated object", "{\"a\": 1");
      ("trailing comma", "[1, 2,]");
      ("missing colon", "{\"a\" 1}");
      ("unquoted key", "{a: 1}");
      ("unterminated string", "\"abc");
      ("bad escape", "\"\\x41\"");
      ("bare minus", "[-]");
      ("single quotes", "['a']");
      ("trailing garbage", "{} extra");
      ("nan literal", "[NaN]") ]

(* ---- the clock ---- *)

let test_monotonic_clock () =
  let t0 = Timer.wall () in
  let (), wall = Timer.measure_wall (fun () -> Unix.sleepf 0.02) in
  check_true "the clock sees the sleep" (wall >= 0.015);
  check_true "the clock never steps back" (Timer.wall () >= t0 +. wall)

(* ---- engine integration ---- *)

let test_disabled_sink_bitwise_identical () =
  let graph, bindings, plan = setup ~k_in:9 ~k_out:7 in
  let seed_engine = Engine.default () in
  let reference =
    Executor.exec ~engine:seed_engine ~timing:Executor.Measure ~graph ~bindings
      plan
  in
  let obs = Obs.create () in
  let live = Engine.create_exn ~obs Engine.default_config in
  ignore (Executor.exec ~engine:live ~timing:Executor.Measure ~graph ~bindings plan);
  let r =
    Executor.exec ~engine:live ~timing:Executor.Measure ~graph ~bindings plan
  in
  check_true "telemetered output is bitwise identical"
    (Test_engine.value_bits_equal reference.Executor.output r.Executor.output);
  (match obs.Obs.metrics with
  | Some m ->
      check_int "two engine runs counted" 2
        (Metrics.counter_value m "engine.runs")
  | None -> Alcotest.fail "a live sink has a metrics registry");
  let explicit_disabled =
    Engine.create_exn ~obs:Obs.disabled Engine.default_config
  in
  check_true "injected disabled sink keeps telemetry off"
    (not (Obs.enabled (Engine.obs explicit_disabled)));
  let r2 =
    Executor.exec ~engine:explicit_disabled ~timing:Executor.Measure ~graph
      ~bindings plan
  in
  check_true "disabled-sink output is bitwise identical"
    (Test_engine.value_bits_equal reference.Executor.output r2.Executor.output)

(* The invariant granii's traces promise: per-step spans carry exactly the
   measured durations of the report, so their sum reconciles with
   setup_time/iteration_time. *)
let prim_span_total trace plan =
  let names =
    List.map (fun (s : Plan.step) -> Primitive.name s.Plan.prim) plan.Plan.steps
  in
  List.fold_left
    (fun acc (name, _, total) ->
      if List.mem name names then acc +. total else acc)
    0. (Trace.aggregate trace)

let test_span_sum_matches_report_exec () =
  let graph, bindings, plan = setup ~k_in:8 ~k_out:8 in
  let obs = Obs.create () in
  let engine = Engine.create_exn ~obs Engine.default_config in
  let r = Executor.exec ~engine ~timing:Executor.Measure ~graph ~bindings plan in
  let t = match obs.Obs.trace with Some t -> t | None -> assert false in
  check_int "trace is balanced" 0 (Trace.open_spans t);
  let expected = r.Executor.setup_time +. r.Executor.iteration_time in
  let got = prim_span_total t plan in
  check_true "per-step spans sum to the report total"
    (Float.abs (got -. expected) <= 1e-9 +. (1e-6 *. Float.abs expected))

let test_span_sum_matches_report_iterations () =
  let graph, bindings, plan = setup ~k_in:8 ~k_out:8 in
  let iterations = 4 in
  let obs = Obs.create () in
  let engine = Engine.create_exn ~obs Engine.default_config in
  let r =
    Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph ~bindings
      ~iterations plan
  in
  let t = match obs.Obs.trace with Some t -> t | None -> assert false in
  check_int "trace is balanced" 0 (Trace.open_spans t);
  let expected =
    r.Executor.setup_time
    +. (float_of_int iterations *. r.Executor.iteration_time)
  in
  let got = prim_span_total t plan in
  check_true "per-step spans sum across iterations"
    (Float.abs (got -. expected) <= 1e-9 +. (1e-6 *. Float.abs expected));
  check_true "one iteration span per iteration"
    (List.exists
       (fun (name, count, _) -> name = "iteration" && count = iterations)
       (Trace.aggregate t))

let test_telemetry_describe_roundtrip () =
  (* the sink is an injected resource, not a config axis: a telemetered
     engine describes the same config as a bare one, and that rendering
     parses back to it *)
  let cfg = { Engine.default_config with keep_intermediates = false } in
  let e = Engine.create_exn ~obs:(Obs.create ()) cfg in
  check_true "the injected sink is live" (Obs.enabled (Engine.obs e));
  let s = Engine.describe e in
  check_true "describe does not mention telemetry"
    (String.equal s (Engine.describe_config cfg));
  match Engine.config_of_string s with
  | Ok cfg' -> check_true "a telemetered engine round-trips" (cfg' = cfg)
  | Error e -> Alcotest.fail e

let suite =
  [ Alcotest.test_case "span nesting and balance" `Quick test_span_nesting;
    Alcotest.test_case "span balance under exceptions" `Quick
      test_span_exception_balance;
    Alcotest.test_case "retro-dated span durations" `Quick
      test_span_dur_override;
    Alcotest.test_case "trace exporters are well-formed" `Quick
      test_exporters_wellformed;
    Alcotest.test_case "metrics bookkeeping + JSON" `Quick
      test_metrics_bookkeeping;
    Alcotest.test_case "prometheus exposition format" `Quick
      test_metrics_prometheus;
    Alcotest.test_case "cost monitor statistics" `Quick
      test_costmon_statistics;
    Alcotest.test_case "cost monitor at the 4096-pair cap" `Quick
      test_costmon_cap;
    Alcotest.test_case "json checker rejection paths" `Quick
      test_json_validate_rejects;
    Alcotest.test_case "monotonic clock sees a sleep" `Quick test_monotonic_clock;
    Alcotest.test_case "disabled sink is bitwise invisible" `Quick
      test_disabled_sink_bitwise_identical;
    Alcotest.test_case "span sum reconciles with exec report" `Quick
      test_span_sum_matches_report_exec;
    Alcotest.test_case "span sum reconciles across iterations" `Quick
      test_span_sum_matches_report_iterations;
    Alcotest.test_case "telemetry describe round-trip" `Quick
      test_telemetry_describe_roundtrip ]
