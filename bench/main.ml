(* GRANII benchmark harness: regenerates every table and figure of the
   paper's evaluation (Sec. VI). Run everything with

     dune exec bench/main.exe

   or a single artifact with `--only <id>`; `--list` shows the ids. Shapes
   (who wins, rough factors, crossovers) are expected to match the paper;
   absolute numbers come from the simulated hardware profiles (DESIGN.md). *)

let benches =
  [ ("fig1", "Fig. 1: static vs config vs input-aware ordering (GCN)", Bench_fig1.run);
    ("fig2", "Fig. 2: %runtime sparse vs dense across graphs/sizes/hw", Bench_fig2.run);
    ("fig3", "Fig. 3: discovered compositions with complexities", Bench_fig3.run);
    ("tab3", "Table III: geomean speedups (systems x hw x mode x model)", Bench_table3.run);
    ("fig8", "Fig. 8: per-graph speedup series", Bench_fig8.run);
    ("tab4", "Table IV: end-to-end 2-layer forward times (H100)", Bench_table4.run);
    ("fig9", "Fig. 9: sampling sensitivity (MC, H100)", Bench_fig9.run);
    ("tab5", "Table V: multi-layer speedups vs WiseGraph", Bench_table5.run);
    ("tab6", "Table VI: GRANII vs oracles + cost-model ablations", Bench_table6.run);
    ("ovh", "Sec. VI-C1: runtime overheads (+ pruning ablation)", Bench_overheads.run);
    ("acc", "Sec. VI-G: cost-model accuracy on held-out graphs", Bench_costmodel.run);
    ("real", "Validation: measured host CPU vs simulator", Bench_real.run);
    ("micro", "Bechamel microbenchmarks of the real kernels", Bench_micro.run);
    ("mem", "Memory: workspace reuse, tiled GEMM", Bench_memory.run);
    ("locality", "Locality: reordering + hybrid format speedups and amortization", Bench_locality.run);
    ("ext", "Extensions: multi-head GAT, executed stacks, deep hops", Bench_ext.run);
    ("serve", "Serving: plan-cache amortization", Bench_serve.run);
    ("minibatch", "Mini-batch training: pipelined loader vs sequential vs full graph", Bench_minibatch.run);
    ("calibration", "Calibration: selection regret on a mis-anchored profile, A/B guard", Bench_calibration.run) ]

let usage () =
  print_endline
    "usage: main.exe [--list | --smoke | --threads <n> | --json <file> | \
     --trace <file> | --metrics <file> | --only <id> [--only <id> ...]]";
  print_endline "available benches:";
  List.iter (fun (id, descr, _) -> Printf.printf "  %-6s %s\n" id descr) benches

module Obs = Granii_obs.Obs

let json_out = ref None
let trace_out = ref None
let metrics_out = ref None

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* The telemetry block of BENCH_*.json: per-bench wall time (already
   recorded as the sections ran) plus the sink's counters/gauges and the
   span aggregate, flattened into rows tagged bench="telemetry". *)
let telemetry_rows obs =
  (match obs.Obs.metrics with
  | None -> ()
  | Some m ->
      List.iter
        (fun (name, v) ->
          Bench_common.(
            json_add ~bench:"telemetry"
              [ ("kind", S "counter"); ("name", S name); ("value", I v) ]))
        (Obs.Metrics.counters m);
      List.iter
        (fun (name, v) ->
          Bench_common.(
            json_add ~bench:"telemetry"
              [ ("kind", S "gauge"); ("name", S name); ("value", F v) ]))
        (Obs.Metrics.gauges m);
      List.iter
        (fun (name, (count, sum, min_, max_)) ->
          Bench_common.(
            json_add ~bench:"telemetry"
              [ ("kind", S "histogram"); ("name", S name); ("count", I count);
                ("sum_s", F sum); ("min_s", F min_); ("max_s", F max_) ]))
        (Obs.Metrics.histograms m));
  match obs.Obs.trace with
  | None -> ()
  | Some t ->
      List.iter
        (fun (name, count, total) ->
          Bench_common.(
            json_add ~bench:"telemetry"
              [ ("kind", S "span"); ("name", S name); ("count", I count);
                ("total_s", F total) ]))
        (Obs.Trace.aggregate t)

let () =
  let args = Array.to_list Sys.argv in
  let rec selected = function
    | [] -> []
    | "--only" :: id :: rest -> id :: selected rest
    | "--threads" :: n :: rest ->
        (match int_of_string_opt n with
        | Some t when t >= 1 -> Bench_common.threads := t
        | Some _ | None ->
            Printf.eprintf "--threads expects a positive integer, got %s\n" n;
            exit 1);
        selected rest
    | [ "--threads" ] ->
        Printf.eprintf "--threads expects a positive integer\n";
        exit 1
    | "--smoke" :: rest ->
        Bench_common.smoke := true;
        selected rest
    | "--json" :: file :: rest ->
        json_out := Some file;
        selected rest
    | [ "--json" ] ->
        Printf.eprintf "--json expects a file name\n";
        exit 1
    | "--trace" :: file :: rest ->
        trace_out := Some file;
        selected rest
    | [ "--trace" ] ->
        Printf.eprintf "--trace expects a file name\n";
        exit 1
    | "--metrics" :: file :: rest ->
        metrics_out := Some file;
        selected rest
    | [ "--metrics" ] ->
        Printf.eprintf "--metrics expects a file name\n";
        exit 1
    | "--list" :: _ ->
        usage ();
        exit 0
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | _ :: rest -> selected rest
  in
  let only = selected (List.tl args) in
  let to_run =
    match only with
    | [] -> benches
    | ids ->
        List.iter
          (fun id ->
            if not (List.exists (fun (i, _, _) -> String.equal i id) benches) then begin
              Printf.eprintf "unknown bench id: %s\n" id;
              usage ();
              exit 1
            end)
          ids;
        List.filter (fun (id, _, _) -> List.mem id ids) benches
  in
  if !trace_out <> None || !metrics_out <> None then
    Bench_common.obs := Obs.create ~trace:(!trace_out <> None) ();
  let obs = !Bench_common.obs in
  let t0 = Sys.time () in
  List.iter
    (fun (id, _, run) ->
      let t = Sys.time () in
      Obs.span obs ~cat:"bench" id run;
      let dt = Sys.time () -. t in
      Bench_common.(json_add ~bench:id [ ("kind", S "timing"); ("cpu_s", F dt) ]);
      Printf.printf "\n[%s finished in %.1fs cpu]\n%!" id dt)
    to_run;
  Printf.printf "\nAll benches finished in %.1fs cpu.\n" (Sys.time () -. t0);
  (match (!trace_out, obs.Obs.trace) with
  | Some file, Some t ->
      write_file file
        (if Filename.check_suffix file ".folded" then Obs.Trace.to_folded t
         else Obs.Trace.to_chrome_json t);
      Printf.printf "wrote %d spans to %s\n" (Obs.Trace.count t) file
  | _ -> ());
  (match (!metrics_out, obs.Obs.metrics) with
  | Some file, Some m ->
      write_file file
        (if Filename.check_suffix file ".prom" then Obs.Metrics.to_prometheus m
         else Obs.Metrics.to_json m);
      Printf.printf "wrote metrics to %s\n" file
  | _ -> ());
  match !json_out with
  | None -> ()
  | Some file ->
      telemetry_rows obs;
      Bench_common.json_write file;
      Printf.printf "wrote %d JSON rows to %s\n" (List.length !Bench_common.json_rows) file
