(* The GRANII command-line interface: inspect the offline compilation stage
   and run the online selection stage from a shell. *)

open Cmdliner
open Granii_core
module G = Granii_graph
module Mp = Granii_mp
module Sys_ = Granii_systems
module Obs = Granii_obs.Obs

(* ---- telemetry plumbing shared by select and stats ---- *)

let trace_file_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Write a trace of the run to $(docv): Chrome trace_event JSON \
              (load in chrome://tracing or Perfetto), or folded flamegraph \
              lines when $(docv) ends in $(b,.folded).")

let metrics_file_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:
             "Write the metrics registry to $(docv): JSON, or Prometheus \
              text exposition format when $(docv) ends in $(b,.prom).")

let journal_file_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:
             "Attach the production event journal (lock-free bounded rings; \
              step executions, plan-cache traffic, drift, backpressure, SLO \
              breaches) and drain it to $(docv) as JSONL \
              after the run.")

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let obs_of_flags ~trace_file ~metrics_file ~journal_file =
  if trace_file = None && metrics_file = None && journal_file = None then
    Obs.disabled
  else
    Obs.create ~trace:(trace_file <> None) ~journal:(journal_file <> None) ()

let print_journal_summary ?(tail = 10) obs =
  match obs.Obs.journal with
  | None -> ()
  | Some j when Obs.Journal.total j = 0 -> ()
  | Some j ->
      Printf.printf "journal (%d events, %d dropped by the bounded rings):\n"
        (Obs.Journal.total j) (Obs.Journal.dropped j);
      List.iter
        (fun (kind, count) -> Printf.printf "  %-22s %8d\n" kind count)
        (Obs.Journal.kind_counts j);
      let entries = Obs.Journal.entries j in
      let n = List.length entries in
      let shown = min tail n in
      Printf.printf "  last %d event%s:\n" shown (if shown = 1 then "" else "s");
      List.iteri
        (fun i e ->
          if i >= n - shown then
            Format.printf "    %a@." Obs.Journal.pp_entry e)
        entries;
      print_newline ()

let export_telemetry obs ~trace_file ~metrics_file ~journal_file =
  (match (trace_file, obs.Obs.trace) with
  | Some path, Some t ->
      write_file path
        (if Filename.check_suffix path ".folded" then Obs.Trace.to_folded t
         else Obs.Trace.to_chrome_json t);
      Printf.printf "wrote %d spans to %s\n" (Obs.Trace.count t) path
  | _ -> ());
  (match (metrics_file, obs.Obs.metrics) with
  | Some path, Some m ->
      write_file path
        (if Filename.check_suffix path ".prom" then Obs.Metrics.to_prometheus m
         else Obs.Metrics.to_json m);
      Printf.printf "wrote metrics to %s\n" path
  | _ -> ());
  match (journal_file, obs.Obs.journal) with
  | Some path, Some j ->
      write_file path (Obs.Journal.to_jsonl j);
      Printf.printf "wrote %d journal events to %s (%d dropped)\n"
        (List.length (Obs.Journal.entries j))
        path (Obs.Journal.dropped j)
  | _ -> ()

(* ---- shared argument converters ---- *)

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer (got %s)" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* --engine SPEC, parsed and validated by [Engine.config_of_string] at the
   command line, so a bad spec fails before anything runs. A locality= key
   pins the layout: the config comes with [Some] of it. *)
let engine_arg =
  let parse = function
    | "show" -> Ok `Show
    | spec -> (
        match Engine.config_of_string spec with
        | Error msg -> Error (`Msg msg)
        | Ok cfg ->
            let pins =
              String.split_on_char ',' spec
              |> List.exists (fun f ->
                     String.starts_with ~prefix:"locality=" (String.trim f))
            in
            Ok (`Config (cfg, if pins then Some cfg.Engine.locality else None)))
  in
  let print ppf = function
    | `Show -> Format.pp_print_string ppf "show"
    | `Config (cfg, _) -> Format.pp_print_string ppf (Engine.describe_config cfg)
  in
  Arg.conv (parse, print)

let model_arg =
  let parse s =
    match Mp.Mp_models.find s with
    | m -> Ok m
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown model %s (try: %s)" s
                (String.concat ", "
                   (List.map (fun m -> m.Mp.Mp_ast.name) Mp.Mp_models.all))))
  in
  let print ppf (m : Mp.Mp_ast.model) = Format.fprintf ppf "%s" m.Mp.Mp_ast.name in
  Arg.conv (parse, print)

let hw_arg =
  let parse s =
    match Granii_hw.Hw_profile.find s with
    | p -> Ok p
    | exception Not_found -> Error (`Msg ("unknown hardware profile " ^ s))
  in
  Arg.conv (parse, fun ppf p -> Format.fprintf ppf "%s" p.Granii_hw.Hw_profile.name)

let graph_arg =
  let parse s =
    match G.Datasets.find s with
    | d -> Ok (G.Datasets.load d)
    | exception Not_found -> (
        (* also accept generator shorthands: rmat:scale:ef, grid:r:c, er:n:deg *)
        match String.split_on_char ':' s with
        | [ "rmat"; scale; ef ] ->
            Ok
              (G.Generators.rmat ~scale:(int_of_string scale)
                 ~edge_factor:(int_of_string ef) ())
        | [ "grid"; r; c ] ->
            Ok (G.Generators.grid2d ~rows:(int_of_string r) ~cols:(int_of_string c) ())
        | [ "er"; n; deg ] ->
            Ok
              (G.Generators.erdos_renyi ~n:(int_of_string n)
                 ~avg_degree:(float_of_string deg) ())
        | _ ->
            Error
              (`Msg
                 (s
                ^ ": expected a dataset key (RD CA MC BL AU OP) or \
                   rmat:<scale>:<ef> | grid:<r>:<c> | er:<n>:<deg>")))
  in
  Arg.conv (parse, fun ppf g -> Format.fprintf ppf "%s" g.G.Graph.name)

let model_pos = Arg.(required & pos 0 (some model_arg) None & info [] ~docv:"MODEL")

let compile_model ?obs (m : Mp.Mp_ast.model) ~binned =
  let low = Mp.Lower.lower m in
  let compiled, stats =
    Granii.compile ?obs ~name:m.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned)
      low.Mp.Lower.ir
  in
  (low, compiled, stats)

(* ---- commands ---- *)

let models_cmd =
  let run () =
    List.iter
      (fun (m : Mp.Mp_ast.model) ->
        let low = Mp.Lower.lower m in
        Format.printf "%-6s %a@." m.Mp.Mp_ast.name Matrix_ir.pp low.Mp.Lower.ir)
      Mp.Mp_models.all
  in
  Cmd.v (Cmd.info "models" ~doc:"List the built-in GNN models and their matrix IR")
    Term.(const run $ const ())

let datasets_cmd =
  let run () =
    Printf.printf "%-4s %-18s %10s %12s %10s   %s\n" "key" "paper graph" "nodes"
      "nnz" "avg deg" "(stand-in family)";
    List.iter
      (fun (d : G.Datasets.t) ->
        let g = G.Datasets.load d in
        Printf.printf "%-4s %-18s %10d %12d %10.1f   %s\n" d.G.Datasets.key
          d.G.Datasets.paper_name (G.Graph.n_nodes g) (G.Graph.n_edges g)
          (G.Graph.avg_degree g) d.G.Datasets.family)
      G.Datasets.all
  in
  Cmd.v
    (Cmd.info "datasets" ~doc:"List the evaluation graph suite (Table II stand-ins)")
    Term.(const run $ const ())

let enumerate_cmd =
  let run model =
    let low, compiled, stats = compile_model model ~binned:false in
    Format.printf "IR: %a@." Matrix_ir.pp low.Mp.Lower.ir;
    Printf.printf
      "rewrite variants: %d, enumerated: %d, pruned: %d, promoted: %d\n\n"
      stats.Granii.n_variants stats.Granii.n_enumerated stats.Granii.n_pruned
      stats.Granii.n_promoted;
    List.iter
      (fun (c : Codegen.ccand) ->
        Printf.printf "%s  [%s]\n  %s\n" c.Codegen.plan.Plan.name
          (String.concat ", "
             (List.map (Format.asprintf "%a" Dim.pp_scenario) c.Codegen.scenarios))
          (String.concat " ; "
             (List.map (Format.asprintf "%a" Primitive.pp)
                (Plan.primitives c.Codegen.plan))))
      compiled.Codegen.candidates
  in
  Cmd.v
    (Cmd.info "enumerate"
       ~doc:"Enumerate and prune a model's primitive compositions (offline stage)")
    Term.(const run $ model_pos)

let codegen_cmd =
  let run model =
    let _, compiled, _ = compile_model model ~binned:false in
    Format.printf "%a@." Codegen.pp compiled
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Show the generated conditional dispatch (Fig. 7 pseudocode)")
    Term.(const run $ model_pos)

let select_cmd =
  let graph =
    Arg.(value & opt graph_arg (G.Datasets.load G.Datasets.reddit)
         & info [ "graph"; "g" ] ~docv:"GRAPH" ~doc:"Input graph (dataset key or generator spec).")
  in
  let k_in = Arg.(value & opt positive_int 256 & info [ "kin" ] ~doc:"Input embedding size.") in
  let k_out = Arg.(value & opt positive_int 256 & info [ "kout" ] ~doc:"Output embedding size.") in
  let hw =
    Arg.(value & opt hw_arg Granii_hw.Hw_profile.a100
         & info [ "hw" ] ~doc:"Target hardware profile (CPU, A100, H100).")
  in
  let iterations =
    Arg.(value & opt positive_int 100
         & info [ "iterations"; "n" ] ~doc:"Execution horizon.")
  in
  let system =
    Arg.(value & opt string "dgl" & info [ "system" ] ~doc:"Host system (wisegraph or dgl).")
  in
  let analytic =
    Arg.(value & flag
         & info [ "analytic" ] ~doc:"Use the analytic cost model instead of training GBRTs.")
  in
  let env_of graph k_in k_out =
    { Dim.n = G.Graph.n_nodes graph;
      nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
      k_in;
      k_out }
  in
  let models_file =
    Arg.(value & opt (some string) None
         & info [ "models-file" ] ~docv:"FILE"
             ~doc:"Load cost models saved by $(b,granii train-costmodel) \
                   instead of retraining.")
  in
  let auto_calibrate =
    Arg.(value & flag
         & info [ "auto-calibrate" ]
             ~doc:
               "Re-anchor the target profile's machine constants with a \
                bounded micro-probe of this host (about 200 ms) before \
                building the cost model.")
  in
  let execute =
    Arg.(value & opt (some positive_int) None
         & info [ "execute" ] ~docv:"N"
             ~doc:
               "After ranking, actually run the selected plan $(docv) times \
                on this machine's CPU (random features) and report measured \
                times plus per-iteration GC allocation.")
  in
  let engine_spec =
    Arg.(value & opt engine_arg (`Config (Engine.default_config, None))
         & info [ "engine" ] ~docv:"SPEC"
             ~doc:
               "Execution-engine configuration for $(b,--execute), as \
                comma-separated key=value pairs parsed by \
                $(b,Engine.config_of_string): $(b,threads)=N (also the \
                thread count the selection targets, fed to the featurizer \
                and the cost models), \
                $(b,locality)=<strategy>+<format>, \
                $(b,intermediates)=keep|drop. Omitted keys keep their \
                defaults; a $(b,locality) key pins the layout (otherwise \
                selection's choice is used). An invalid spec is rejected \
                before anything runs. $(b,--engine show) prints the engine \
                the run would use and exits.")
  in
  let run model graph k_in k_out profile iterations system analytic auto_calibrate
      models_file execute engine_spec trace_file metrics_file journal_file =
    (* --engine SPEC configures the execution substrate of --execute and the
       thread count selection targets; the locality axis stays with
       selection unless the spec pins it. *)
    let engine_base, pinned =
      match engine_spec with
      | `Show ->
          print_endline (Engine.describe_config Engine.default_config);
          print_endline
            "(locality is selection's choice at --execute time unless the \
             spec carries a locality= key)";
          exit 0
      | `Config c -> c
    in
    (* selection targets the engine --execute runs on: one thread count *)
    let threads = engine_base.Engine.threads in
    (* a pinned layout is the only configuration the joint argmin scores *)
    let configs = Option.map (fun l -> [ l ]) pinned in
    let obs = obs_of_flags ~trace_file ~metrics_file ~journal_file in
    let sys = Sys_.System.find system in
    let low, compiled, _ =
      compile_model ~obs model ~binned:sys.Sys_.System.binned_degrees
    in
    let profile =
      if not auto_calibrate then profile
      else begin
        Printf.printf "micro-probing host to re-anchor %s...\n%!"
          profile.Granii_hw.Hw_profile.name;
        let p = Granii_hw.Calibrate.profile ~base:profile () in
        Printf.printf
          "  %s: dense %.1f gflops, sparse %.1f gflops, stream %.1f GB/s, \
           random %.1f GB/s\n"
          p.Granii_hw.Hw_profile.name p.Granii_hw.Hw_profile.dense_gflops
          p.Granii_hw.Hw_profile.sparse_gflops
          p.Granii_hw.Hw_profile.stream_gbps p.Granii_hw.Hw_profile.random_gbps;
        p
      end
    in
    let oracle =
      let base =
        match models_file with
        | Some file -> Cost_model.load file
        | None ->
            if analytic then Cost_model.analytic profile
            else begin
              Printf.printf "training cost models for %s...\n%!"
                profile.Granii_hw.Hw_profile.name;
              Cost_model.train ~profile (Profiling.collect ~profile ())
            end
      in
      Cost_oracle.of_model base
    in
    let localized =
      Granii.optimize_localized ~obs ~oracle ~graph ~k_in ~k_out ~iterations
        ~threads ?configs compiled
    in
    let decision = localized.Granii.ldecision in
    Printf.printf
      "input: %s (n=%d nnz=%d), %d -> %d, cost model %s, %d iterations, %d thread%s\n"
      graph.G.Graph.name (G.Graph.n_nodes graph) (G.Graph.n_edges graph) k_in k_out
      (Cost_oracle.name oracle) iterations threads
      (if threads = 1 then "" else "s");
    Printf.printf "overhead: %.3f ms (featurize %.3f + select %.3f)\n"
      (1000. *. decision.Granii.overhead)
      (1000. *. decision.Granii.feats.Featurizer.extraction_time)
      (1000. *. decision.Granii.choice.Selector.selection_time);
    Printf.printf "layout: %s" (Locality.config_to_string localized.Granii.config);
    if not (Locality.is_default localized.Granii.config) then
      Printf.printf " (%.3f ms predicted vs %.3f ms legacy)"
        (1000. *. decision.Granii.choice.Selector.predicted_cost)
        (1000. *. localized.Granii.base_cost);
    print_newline ();
    let env = env_of graph k_in k_out in
    let ranked =
      Selector.rank ~oracle ~feats:decision.Granii.feats ~env ~iterations compiled
    in
    List.iteri
      (fun i (c, cost) ->
        Printf.printf "%s #%d %-14s %10.3f ms   %s\n"
          (if i = 0 then "->" else "  ")
          (i + 1) c.Codegen.plan.Plan.name (1000. *. cost)
          (String.concat " ; "
             (List.map (Format.asprintf "%a" Primitive.pp)
                (Plan.primitives c.Codegen.plan))))
      ranked;
    (match execute with
    | None -> ()
    | Some iters ->
        let module Dense = Granii_tensor.Dense in
        let module Gnn = Granii_gnn in
        let plan = decision.Granii.choice.Selector.candidate.Codegen.plan in
        let params = Gnn.Layer.init_params ~seed:0 ~env low in
        let h = Dense.random ~seed:1 (G.Graph.n_nodes graph) k_in in
        let bindings = Gnn.Layer.bindings ~graph ~h params in
        (* a pinned layout is also the one selection returned *)
        let engine =
          Engine.create_exn ~obs
            { engine_base with Engine.locality = localized.Granii.config }
        in
        let run_once () =
          Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph
            ~bindings ~iterations:iters plan
        in
        (* warm-up run so the measured one sees steady state and a warm
           arena *)
        ignore (run_once ());
        (* exact counters: [Gc.minor_words] is this domain's, [Gc.stat]'s
           major words are the whole program's, pool domains included
           ([Gc.quick_stat] only moves at a minor collection) *)
        let minor0 = Gc.minor_words () and major0 = (Gc.stat ()).Gc.major_words in
        let r = run_once () in
        let minor1 = Gc.minor_words () and major1 = (Gc.stat ()).Gc.major_words in
        let per x = x /. float_of_int iters in
        Printf.printf
          "executed %s on host CPU: %d iterations\n\
          \  engine: %s\n\
          \  setup %.3f ms, layout %.3f ms, %.3f ms/iteration\n\
          \  GC: %.0f minor (this domain) + %.0f major (all domains) \
           words/iteration\n"
          plan.Plan.name iters
          (Engine.describe engine)
          (1000. *. r.Executor.setup_time)
          (1000. *. r.Executor.layout_time)
          (1000. *. r.Executor.iteration_time)
          (per (minor1 -. minor0))
          (per (major1 -. major0));
        (let module W = Granii_tensor.Workspace in
         let s = W.stats (Engine.workspace engine) in
         Printf.printf "  arena: %d hits / %d misses, %d words held\n" s.W.hits
           s.W.misses (s.W.held_words + s.W.issued_words));
        Engine.shutdown engine);
    export_telemetry obs ~trace_file ~metrics_file ~journal_file
  in
  Cmd.v
    (Cmd.info "select"
       ~doc:"Run the online stage: featurize an input and rank the candidates")
    Term.(const run $ model_pos $ graph $ k_in $ k_out $ hw $ iterations $ system
          $ analytic $ auto_calibrate $ models_file $ execute
          $ engine_spec $ trace_file_arg
          $ metrics_file_arg $ journal_file_arg)

(* granii stats: a fully-telemetered end-to-end run (compile -> featurize ->
   select -> execute N iterations in Measure mode on the host CPU) reported
   through the observability subsystem itself: span aggregate, metrics
   registry and the cost-model accuracy monitor. *)
let stats_cmd =
  let graph =
    Arg.(value & opt graph_arg (G.Generators.rmat ~scale:10 ~edge_factor:8 ())
         & info [ "graph"; "g" ] ~docv:"GRAPH"
             ~doc:"Input graph (dataset key or generator spec).")
  in
  let k_in = Arg.(value & opt positive_int 64 & info [ "kin" ] ~doc:"Input embedding size.") in
  let k_out = Arg.(value & opt positive_int 64 & info [ "kout" ] ~doc:"Output embedding size.") in
  let iterations =
    Arg.(value & opt positive_int 10
         & info [ "iterations"; "n" ] ~doc:"Measured iterations to execute.")
  in
  let threads =
    Arg.(value & opt positive_int 1
         & info [ "threads"; "t" ] ~doc:"Engine thread count.")
  in
  let run model graph k_in k_out iterations threads trace_file metrics_file
      journal_file =
    let obs = Obs.create () in
    let low, compiled, _ = compile_model ~obs model ~binned:false in
    (* the analytic host-CPU oracle: the same predictor the executor prices
       each step's cost-monitor pair with *)
    let oracle = Cost_oracle.analytic Granii_hw.Hw_profile.cpu in
    let localized =
      Granii.optimize_localized ~obs ~oracle ~graph ~k_in ~k_out ~iterations
        ~threads compiled
    in
    let decision = localized.Granii.ldecision in
    let plan = decision.Granii.choice.Selector.candidate.Codegen.plan in
    let env =
      { Dim.n = G.Graph.n_nodes graph;
        nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
        k_in;
        k_out }
    in
    let module Dense = Granii_tensor.Dense in
    let module Gnn = Granii_gnn in
    let params = Gnn.Layer.init_params ~seed:0 ~env low in
    let h = Dense.random ~seed:1 (G.Graph.n_nodes graph) k_in in
    let bindings = Gnn.Layer.bindings ~graph ~h params in
    let engine =
      Engine.create_exn ~obs
        { Engine.default_config with threads; locality = localized.Granii.config }
    in
    let r =
      Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph ~bindings
        ~iterations plan
    in
    Engine.shutdown engine;
    Printf.printf
      "%s on %s (n=%d nnz=%d) %d->%d, %d iterations, engine %s\n\
       selected %s: setup %.3f ms, layout %.3f ms, %.3f ms/iteration\n\n"
      compiled.Codegen.model_name graph.G.Graph.name (G.Graph.n_nodes graph)
      (G.Graph.n_edges graph) k_in k_out iterations (Engine.describe engine)
      plan.Plan.name
      (1000. *. r.Executor.setup_time)
      (1000. *. r.Executor.layout_time)
      (1000. *. r.Executor.iteration_time);
    (match obs.Obs.trace with
    | None -> ()
    | Some t ->
        Printf.printf "spans (%d recorded, %d still open):\n" (Obs.Trace.count t)
          (Obs.Trace.open_spans t);
        Printf.printf "  %-22s %8s %14s\n" "name" "count" "total ms";
        List.iter
          (fun (name, count, total) ->
            Printf.printf "  %-22s %8d %14.3f\n" name count (1000. *. total))
          (Obs.Trace.aggregate t);
        (* the invariant granii's traces promise: per-step spans of the
           iteration phase sum to the report's measured iteration time *)
        let step_total =
          List.fold_left
            (fun acc (name, _, total) ->
              if List.exists
                   (fun (s : Plan.step) -> Primitive.name s.Plan.prim = name)
                   plan.Plan.steps
              then acc +. total
              else acc)
            0. (Obs.Trace.aggregate t)
        in
        Printf.printf
          "  step spans total %.3f ms vs measured %.3f ms (setup + %d x iteration)\n\n"
          (1000. *. step_total)
          (1000.
          *. (r.Executor.setup_time
             +. (float_of_int iterations *. r.Executor.iteration_time)))
          iterations);
    (match obs.Obs.metrics with
    | None -> ()
    | Some m ->
        Printf.printf "counters:\n";
        List.iter
          (fun (name, v) -> Printf.printf "  %-38s %12d\n" name v)
          (Obs.Metrics.counters m);
        Printf.printf "gauges:\n";
        List.iter
          (fun (name, v) -> Printf.printf "  %-38s %12.0f\n" name v)
          (Obs.Metrics.gauges m);
        Printf.printf "histograms:\n";
        List.iter
          (fun (name, (count, sum, min_, max_)) ->
            Printf.printf "  %-38s n=%-6d sum %10.3f ms  [%0.3f .. %0.3f ms]\n"
              name count (1000. *. sum) (1000. *. min_) (1000. *. max_))
          (Obs.Metrics.histograms m);
        print_newline ());
    (* the sink's cost monitor holds every (predicted, measured) step pair
       the run produced *)
    Option.iter
      (fun cm ->
        Format.printf "%a@." Obs.Cost_monitor.pp_report
          (Obs.Cost_monitor.report cm))
      obs.Obs.costmon;
    print_journal_summary obs;
    export_telemetry obs ~trace_file ~metrics_file ~journal_file
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a fully-telemetered compile/select/execute cycle and report \
          spans, metrics, cost-model accuracy and the event journal")
    Term.(const run $ model_pos $ graph $ k_in $ k_out $ iterations $ threads
          $ trace_file_arg $ metrics_file_arg $ journal_file_arg)

let baseline_cmd =
  let k_in = Arg.(value & opt positive_int 256 & info [ "kin" ] ~doc:"Input embedding size.") in
  let k_out = Arg.(value & opt positive_int 256 & info [ "kout" ] ~doc:"Output embedding size.") in
  let run model k_in k_out =
    List.iter
      (fun sys ->
        let plan = Sys_.Baseline.plan (Sys_.Baseline.make sys model) ~k_in ~k_out in
        Format.printf "%s default:@.%a@.@." sys.Sys_.System.sys_name Plan.pp plan)
      Sys_.System.all
  in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Show the WiseGraph/DGL default composition for a configuration")
    Term.(const run $ model_pos $ k_in $ k_out)

let train_costmodel_cmd =
  let hw =
    Arg.(value & opt hw_arg Granii_hw.Hw_profile.a100
         & info [ "hw" ] ~doc:"Hardware profile to profile against.")
  in
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to save the trained models.")
  in
  let measured =
    Arg.(value & flag
         & info [ "measured" ]
             ~doc:
               "Label the profiling data by actually executing and timing every \
                primitive on this machine's CPU instead of the simulated profile.")
  in
  let threads_grid =
    Arg.(value & opt (list positive_int) [ 1 ]
         & info [ "threads-grid" ] ~docv:"N,N,..."
             ~doc:
               "Thread counts to profile the simulated kernels at (e.g. \
                $(b,1,2,4,8)); the trained models then see the thread count \
                as a feature. Ignored with $(b,--measured).")
  in
  let run profile output measured threads_grid =
    if threads_grid = [] then begin
      Printf.eprintf "--threads-grid expects positive integers\n";
      exit 1
    end;
    let data, profile =
      if measured then begin
        Printf.printf "measuring primitives on the host CPU...\n%!";
        (Profiling.collect_measured (), Granii_hw.Hw_profile.cpu)
      end
      else begin
        Printf.printf "profiling primitives on %s...\n%!"
          profile.Granii_hw.Hw_profile.name;
        (Profiling.collect ~profile ~threads_grid (), profile)
      end
    in
    Printf.printf "training %d per-primitive models...\n%!" (List.length data);
    let cm = Cost_model.train ~profile data in
    Cost_model.save cm output;
    Printf.printf "saved %s to %s\n" (Cost_model.name cm) output
  in
  Cmd.v
    (Cmd.info "train-costmodel"
       ~doc:
         "The initialization script: profile every primitive and train the \
          per-primitive cost models, saving them to disk (was $(b,granii \
          train) before mini-batch training took that name)")
    Term.(const run $ hw $ output $ measured $ threads_grid)

(* granii train: pipelined mini-batch GNN training (lib/gnn Loader +
   Trainer.train_minibatch) on synthetic features/labels — the CLI surface
   of the mini-batch tentpole. *)
let train_cmd =
  let module Gnn = Granii_gnn in
  let graph =
    Arg.(value & opt graph_arg (G.Generators.rmat ~scale:10 ~edge_factor:16 ())
         & info [ "graph"; "g" ] ~docv:"GRAPH"
             ~doc:"Input graph (dataset key or generator spec).")
  in
  let k_in = Arg.(value & opt positive_int 32 & info [ "kin" ] ~doc:"Input embedding size.") in
  let classes =
    Arg.(value & opt int 5 & info [ "classes" ] ~doc:"Number of label classes.")
  in
  let sample =
    let parse s =
      let fail () =
        Error (`Msg (s ^ ": expected fanout=<n>[,<n>...], e.g. fanout=10,5"))
      in
      match String.split_on_char '=' s with
      | [ "fanout"; spec ] -> (
          match
            List.map int_of_string_opt (String.split_on_char ',' spec)
          with
          | [] -> fail ()
          | fs when List.exists (function Some f -> f > 0 | None -> false) fs
                    && List.for_all (function Some f -> f > 0 | None -> false) fs
            -> Ok (List.filter_map Fun.id fs)
          | _ -> fail ())
      | _ -> fail ()
    in
    let print ppf fs =
      Format.fprintf ppf "fanout=%s"
        (String.concat "," (List.map string_of_int fs))
    in
    Arg.(value & opt (conv (parse, print)) [ 10; 5 ]
         & info [ "sample" ] ~docv:"SPEC"
             ~doc:
               "Layered sampling schedule, $(b,fanout=<n>[,<n>...]): per-hop \
                neighbor caps walked backward from each seed batch.")
  in
  let batch_size =
    Arg.(value & opt positive_int 256
         & info [ "batch-size"; "b" ] ~doc:"Seed nodes per mini-batch.")
  in
  let epochs =
    Arg.(value & opt positive_int 3 & info [ "epochs" ] ~doc:"Training epochs.")
  in
  let pipeline =
    Arg.(value & flag
         & info [ "pipeline" ]
             ~doc:
               "Prepare batch i+1 on a dedicated domain while batch i \
                executes (the default; $(b,--sequential) is the ablation).")
  in
  let sequential =
    Arg.(value & flag
         & info [ "sequential" ]
             ~doc:
               "Sample and featurize inline on the training thread — the \
                pipeline ablation arm. Losses are bitwise identical to \
                $(b,--pipeline).")
  in
  let lr =
    Arg.(value & opt float 0.01 & info [ "lr" ] ~doc:"Adam learning rate.")
  in
  let threads =
    Arg.(value & opt positive_int 1
         & info [ "threads"; "t" ] ~doc:"Execution-engine thread count.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Run seed.") in
  let models_file =
    Arg.(value & opt (some string) None
         & info [ "models-file" ] ~docv:"FILE"
             ~doc:"Load cost models saved by $(b,granii train-costmodel) \
                   (default: the analytic host-CPU model).")
  in
  let run model graph k_in classes fanouts batch_size epochs pipeline
      sequential lr threads seed models_file trace_file metrics_file
      journal_file =
    if pipeline && sequential then begin
      Printf.eprintf "--pipeline and --sequential are mutually exclusive\n";
      exit 1
    end;
    if classes < 2 then begin
      Printf.eprintf "--classes expects at least 2\n";
      exit 1
    end;
    let mode = if sequential then Gnn.Loader.Sequential else Gnn.Loader.Pipelined in
    let obs = obs_of_flags ~trace_file ~metrics_file ~journal_file in
    let oracle =
      match models_file with
      | Some file -> Cost_oracle.load file
      | None -> Cost_oracle.analytic Granii_hw.Hw_profile.cpu
    in
    let low, compiled, _ = compile_model ~obs model ~binned:false in
    let n = G.Graph.n_nodes graph in
    let rng = Granii_tensor.Prng.create (seed + 13) in
    let labels =
      Array.init n (fun _ -> Granii_tensor.Prng.int rng classes)
    in
    let features =
      Granii_tensor.Dense.init n k_in (fun i j ->
          Granii_tensor.Prng.normal rng
          +. if j = labels.(i) mod k_in then 1.5 else 0.)
    in
    let env =
      { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out = classes }
    in
    let params = Gnn.Layer.init_params ~seed:(seed + 4) ~env low in
    let engine =
      Engine.create_exn ~obs { Engine.default_config with threads }
    in
    Printf.printf
      "train: %s on %s (n=%d nnz=%d), %d -> %d, fanout=%s batch=%d \
       epochs=%d, %s, %d thread%s\n%!"
      model.Mp.Mp_ast.name graph.G.Graph.name n (G.Graph.n_edges graph) k_in
      classes
      (String.concat "," (List.map string_of_int fanouts))
      batch_size epochs
      (Gnn.Loader.mode_to_string mode)
      threads
      (if threads = 1 then "" else "s");
    let h =
      Gnn.Trainer.train_minibatch ~seed ~engine ~mode ~classes ~fanouts
        ~epochs ~batch_size
        ~optimizer:(Gnn.Optimizer.adam ~lr ())
        ~oracle ~compiled ~graph ~features ~labels ~params ()
    in
    Engine.shutdown engine;
    Array.iteri
      (fun e loss -> Printf.printf "epoch %d  loss %.4f\n" e loss)
      h.Gnn.Trainer.epoch_losses;
    let pc = h.Gnn.Trainer.cache_stats in
    let wall = h.Gnn.Trainer.wall_time in
    Printf.printf
      "%d batches in %.3f s (%.1f ms/epoch)\n\
       stages      sample %.1f ms, featurize %.1f ms, select %.1f ms, exec \
       %.1f ms\n\
       pipeline    stall %.1f ms (%.1f%% of wall)\n\
       plan cache  %d hits / %d misses / %d evictions, selection %.2f%% of \
       wall\n"
      h.Gnn.Trainer.n_batches wall
      (1000. *. wall /. float_of_int epochs)
      (1000. *. h.Gnn.Trainer.sample_time)
      (1000. *. h.Gnn.Trainer.featurize_time)
      (1000. *. h.Gnn.Trainer.selection_time)
      (1000. *. h.Gnn.Trainer.exec_time)
      (1000. *. h.Gnn.Trainer.stall_time)
      (100. *. h.Gnn.Trainer.stall_time /. wall)
      pc.Plan_cache.hits pc.Plan_cache.misses pc.Plan_cache.evictions
      (100. *. h.Gnn.Trainer.selection_time /. wall);
    export_telemetry obs ~trace_file ~metrics_file ~journal_file
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:
         "Mini-batch GNN training: layered neighbor sampling through the \
          plan cache, optionally pipelined on a dedicated loader domain")
    Term.(const run $ model_pos $ graph $ k_in $ classes $ sample $ batch_size
          $ epochs $ pipeline $ sequential $ lr $ threads $ seed $ models_file
          $ trace_file_arg $ metrics_file_arg $ journal_file_arg)

(* granii serve-sim: closed-loop load against the multi-tenant serving
   runtime (lib/serve). Each simulated client keeps one request outstanding;
   the report is the serving tentpole's headline numbers — latency
   percentiles, throughput, batch widths and plan-cache amortization. *)
let serve_sim_cmd =
  let module Serve = Granii_serve.Serve in
  let module Ssim = Granii_serve.Sim in
  let graph =
    Arg.(value & opt graph_arg (G.Generators.rmat ~scale:10 ~edge_factor:8 ())
         & info [ "graph"; "g" ] ~docv:"GRAPH"
             ~doc:"Input graph (dataset key or generator spec).")
  in
  let k_in = Arg.(value & opt positive_int 32 & info [ "kin" ] ~doc:"Input embedding size.") in
  let k_out = Arg.(value & opt positive_int 16 & info [ "kout" ] ~doc:"Output embedding size.") in
  let requests =
    Arg.(value & opt positive_int 256
         & info [ "requests"; "n" ] ~doc:"Total requests to serve.")
  in
  let clients =
    Arg.(value & opt positive_int 8
         & info [ "clients" ]
             ~doc:"Concurrent closed-loop clients (each keeps one request \
                   outstanding).")
  in
  let tenants =
    Arg.(value & opt positive_int 2
         & info [ "tenants" ] ~doc:"Tenants the clients are spread across.")
  in
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ]
             ~doc:"Worker domains; $(b,0) runs the scheduler on the \
                   simulation loop itself (manual mode).")
  in
  let queue_bound =
    Arg.(value & opt int 64
         & info [ "queue-bound" ] ~doc:"Per-tenant admission-queue capacity.")
  in
  let no_plan_cache =
    Arg.(value & flag
         & info [ "no-plan-cache" ]
             ~doc:"Disable the plan cache (selection runs on every request).")
  in
  let threads =
    Arg.(value & opt positive_int 1
         & info [ "threads"; "t" ]
             ~doc:"Kernel thread count (manual mode only; worker domains \
                   always run kernels sequentially).")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Client feature-matrix seed.")
  in
  let slo =
    Arg.(value & opt (some float) None
         & info [ "slo" ] ~docv:"MS"
             ~doc:
               "Per-request latency objective in milliseconds: completions \
                slower than $(docv) count as SLO breaches, reported as a \
                breach rate and time-to-first-breach.")
  in
  let run model graph k_in k_out requests clients tenants workers queue_bound
      no_plan_cache threads seed slo trace_file metrics_file journal_file =
    let obs = obs_of_flags ~trace_file ~metrics_file ~journal_file in
    let cfg =
      { Serve.default_config with
        workers;
        queue_bound;
        plan_cache = (if no_plan_cache then 0 else Serve.default_config.Serve.plan_cache);
        threads;
        slo_ms = slo }
    in
    let server =
      try Serve.create ~obs cfg
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    in
    Serve.register_graph server ~name:graph.G.Graph.name graph;
    let load =
      { Ssim.clients;
        requests;
        tenants;
        graph = graph.G.Graph.name;
        model = model.Mp.Mp_ast.name;
        k_in;
        k_out;
        seed }
    in
    let res = Ssim.run server load in
    Serve.shutdown server;
    let hist = Serve.latency_histogram server in
    let s = res.Ssim.stats in
    Printf.printf
      "serve-sim: %s on %s (n=%d nnz=%d) %d->%d\n\
       %d requests, %d clients across %d tenants; workers=%d threads=%d \
       queue_bound=%d plan_cache=%d\n\n"
      model.Mp.Mp_ast.name graph.G.Graph.name (G.Graph.n_nodes graph)
      (G.Graph.n_edges graph) k_in k_out requests clients tenants workers
      threads queue_bound cfg.Serve.plan_cache;
    Printf.printf "completed   %d in %.3f s  =  %.1f req/s\n" s.Serve.completed
      res.Ssim.wall res.Ssim.throughput;
    Printf.printf "latency     p50 %.3f ms   p99 %.3f ms   mean %.3f ms\n"
      (1000. *. res.Ssim.p50) (1000. *. res.Ssim.p99)
      (1000. *. res.Ssim.mean_latency);
    let pc = s.Serve.plan_cache in
    Printf.printf "plan cache  %d hits / %d misses / %d evictions\n"
      pc.Plan_cache.hits pc.Plan_cache.misses pc.Plan_cache.evictions;
    Printf.printf "backpressure retries %d\n" res.Ssim.retries;
    if Obs.Histogram.count hist > 0 then
      Printf.printf
        "histogram   p50 %.3f ms   p95 %.3f ms   p99 %.3f ms  (bucketed, \
         %d samples)\n"
        (1000. *. Obs.Histogram.quantile hist 0.5)
        (1000. *. Obs.Histogram.quantile hist 0.95)
        (1000. *. Obs.Histogram.quantile hist 0.99)
        (Obs.Histogram.count hist);
    (match slo with
    | None -> ()
    | Some ms ->
        Printf.printf "slo %.1fms   %d breaches = %.1f%% of completions%s\n"
          ms s.Serve.slo_breaches
          (100. *. res.Ssim.breach_rate)
          (match res.Ssim.first_breach_s with
          | Some fb -> Printf.sprintf ", first after %.3f s" fb
          | None -> ""));
    print_newline ();
    print_journal_summary obs;
    export_telemetry obs ~trace_file ~metrics_file ~journal_file
  in
  Cmd.v
    (Cmd.info "serve-sim"
       ~doc:
         "Drive the multi-tenant serving runtime with closed-loop simulated \
          load and report latency percentiles, throughput, plan-cache and \
          SLO stats")
    Term.(const run $ model_pos $ graph $ k_in $ k_out $ requests $ clients
          $ tenants $ workers $ queue_bound $ no_plan_cache $ threads $ seed
          $ slo $ trace_file_arg $ metrics_file_arg $ journal_file_arg)

let main =
  let doc = "GRANII: input-aware selection and ordering of GNN primitives" in
  Cmd.group
    (Cmd.info "granii" ~version:"1.0.0" ~doc)
    [ models_cmd; datasets_cmd; enumerate_cmd; codegen_cmd; select_cmd;
      stats_cmd; baseline_cmd; train_cmd; train_costmodel_cmd; serve_sim_cmd ]

let () =
  (* -v / GRANII_VERBOSE=1 turns on the library's decision log *)
  let verbose =
    Array.exists (fun a -> a = "-v" || a = "--verbose") Sys.argv
    || Sys.getenv_opt "GRANII_VERBOSE" <> None
  in
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.Src.set_level Granii.log_src (Some Logs.Info)
  end;
  let argv = Array.of_list (List.filter (fun a -> a <> "-v" && a <> "--verbose")
                              (Array.to_list Sys.argv)) in
  exit (Cmd.eval ~argv main)
