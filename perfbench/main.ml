(* The repository benchmark (BENCHMARK.json at the repository root).

     main.exe --workload serve|infer|train --seed N --seconds S --trace 0|1

   Each workload builds its inputs from the seed, times its program's
   set-up several times, drives its operations through the public API for
   S seconds with no tracing, and checks outputs against a reference
   outside the timed window. With --trace 1 it then measures each layer
   with the benchmark's own spans, reports the residual the layers leave
   against the untraced end-to-end time, and writes the spans to
   perfbench/traces/<workload>-<seed>.json.

   Every workload prints the same end-to-end metrics about its own
   operation (a served request, a pass over the nine inference inputs, a
   training epoch) and the same per-layer metrics; a layer a workload does
   not call reads 0. The last stdout line is the result object; the line
   before it is a report with the host fingerprint (nproc, OCaml version
   and the probed peak rates, which the roofline placement divides by).
   The exit code is 0 only when every check passed and nothing failed. *)

module L = Ledger
module Calibrate = Granii_hw.Calibrate

let end_to_end =
  [ ("setup_s", "s"); ("heap_peak_mb", "MB"); ("throughput_rps", "1/s");
    ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms") ]

let per_layer =
  [ ("layer.bindings_ms", "ms"); ("serve.submit_us", "us");
    ("serve.queue_wait_ms", "ms"); ("serve.batch_width", "count");
    ("executor.exec_ms", "ms"); ("batch.exec_ms", "ms");
    ("batch.widened_steps", "count"); ("batch.scattered_steps", "count");
    ("plan_cache.hit_ratio", "ratio"); ("selector.select_ms", "ms");
    ("featurizer.extract_ms", "ms"); ("executor.layout_ms", "ms");
    ("executor.setup_ms", "ms"); ("executor.iter_ms", "ms") ]
  @ List.concat_map
      (fun k ->
        [ ("dispatch." ^ k ^ "_ms", "ms"); ("dispatch." ^ k ^ "_headroom", "ratio") ])
      Roofline.kinds
  @ [ ("sampling.layered_fanout_ms", "ms"); ("loader.stall_ms", "ms");
      ("autodiff.backward_ms", "ms"); ("optimizer.step_ms", "ms");
      ("obs.overhead_frac", "ratio"); ("gc.alloc_mb_per_op", "MB");
      ("gc.major_collections", "count"); ("residual_frac", "ratio");
      ("trace.overhead_frac", "ratio") ]

let workloads =
  [ ("serve", Serve_workload.run); ("infer", Infer_workload.run);
    ("train", Train_workload.run) ]

let usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload serve|infer|train --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> usage (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg "--seconds" v); go rest
    | "--trace" :: v :: rest -> trace := Some (int_arg "--trace" v); go rest
    | [] -> ()
    | a :: _ -> usage ("unexpected argument " ^ a)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t ->
      if not (List.mem_assoc w workloads) then usage ("unknown workload " ^ w);
      if secs < 1 then usage "--seconds must be at least 1";
      if t <> 0 && t <> 1 then usage "--trace must be 0 or 1";
      (w, s, float_of_int secs, t = 1)
  | _ -> usage "missing argument"

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (m : L.metric) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.L.name
             (json_number m.L.value) m.L.unit_)
         ms)
  ^ "}"

(* Exactly the declared metrics of this mode, in declaration order; a layer
   the workload never called reads 0. *)
let select ~trace (ms : L.metric list) =
  List.iter
    (fun (m : L.metric) ->
      if not (List.mem_assoc m.L.name end_to_end || List.mem_assoc m.L.name per_layer)
      then failwith ("undeclared metric " ^ m.L.name);
      if not (Float.is_finite m.L.value) then
        failwith (Printf.sprintf "metric %s is not finite" m.L.name))
    ms;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : L.metric) -> m.L.name = name) ms with
      | Some m -> m
      | None ->
          if not trace then failwith ("missing end-to-end metric " ^ name);
          L.m name unit_ 0.)
    (if trace then per_layer else end_to_end)

let () =
  let workload, seed, seconds, trace = parse Sys.argv in
  let peaks = Calibrate.measure () in
  let host =
    Printf.sprintf
      "{\"nproc\": %d, \"ocaml\": %S, \"dense_gflops\": %s, \"sparse_gflops\": %s, \"stream_gbps\": %s, \"random_gbps\": %s}"
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
      (json_number peaks.Calibrate.dense_gflops)
      (json_number peaks.Calibrate.sparse_gflops)
      (json_number peaks.Calibrate.stream_gbps)
      (json_number peaks.Calibrate.random_gbps)
  in
  let o, tracers =
    (List.assoc workload workloads) ~seed ~seconds ~trace ~peaks
  in
  let metrics = select ~trace o.L.metrics in
  if trace then
    L.write_trace
      (Printf.sprintf "perfbench/traces/%s-%d.json" workload seed)
      tracers;
  let correct = o.L.failed = 0 && o.L.checked > 0 in
  Printf.printf
    "{\"report\": {\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"host\": %s, \"checked\": %d, \"failed_frac\": %s, \"notes\": {%s}, \"all_metrics\": %s}}\n"
    workload seed (json_number seconds) trace host o.L.checked
    (json_number (L.ratio (float_of_int o.L.failed) (float_of_int (max 1 o.L.attempted))))
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_number v)) o.L.notes))
    (json_metrics o.L.metrics);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    correct (max 1 o.L.attempted) o.L.failed (json_metrics metrics);
  exit (if correct then 0 else 1)
