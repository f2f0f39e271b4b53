(* The engine layer: config legality as typed errors, describe/parse
   round-trips, and the differential guarantee — every legal engine
   configuration executes every model bitwise-identically to the heap
   reference ([Test_util.heap_exec]: every kernel without an arena). *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module Csr = Granii_sparse.Csr
module G = Granii_graph
module Reorder = G.Reorder
module Mp = Granii_mp
module Gnn = Granii_gnn

let bits_equal a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
        a;
      !ok)

let value_bits_equal (a : Executor.value) (b : Executor.value) =
  match (a, b) with
  | Executor.Vdense x, Executor.Vdense y ->
      x.Dense.rows = y.Dense.rows && x.Dense.cols = y.Dense.cols
      && bits_equal x.Dense.data y.Dense.data
  | Executor.Vdiag x, Executor.Vdiag y -> bits_equal x y
  | Executor.Vsparse x, Executor.Vsparse y -> (
      x.Csr.row_ptr = y.Csr.row_ptr && x.Csr.col_idx = y.Csr.col_idx
      &&
      match (x.Csr.values, y.Csr.values) with
      | None, None -> true
      | Some v, Some w -> bits_equal v w
      | _ -> false)
  | _ -> false

let compile_model (m : Mp.Mp_ast.model) =
  let low = Mp.Lower.lower m in
  let compiled, _ =
    Granii.compile ~name:m.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      low.Mp.Lower.ir
  in
  (low, compiled)

let setup_bindings ?(seed = 11) ~k_in ~k_out low graph =
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out } in
  let params = Gnn.Layer.init_params ~seed ~env low in
  let h = Dense.random ~seed:(seed + 1) n k_in in
  (env, Gnn.Layer.bindings ~graph ~h params)

(* ---- legality: every illegal config is a typed error ---- *)

let test_illegal_typed () =
  let expect name cfg pred =
    match Engine.create cfg with
    | Ok e ->
        Engine.shutdown e;
        Alcotest.fail (name ^ ": expected a typed error, got Ok")
    | Error e ->
        check_true (name ^ ": the right error constructor") (pred e);
        check_true
          (name ^ ": error_to_string is meaningful")
          (String.length (Engine.error_to_string e) > 0)
    | exception exn ->
        Alcotest.fail
          (Printf.sprintf "%s: create leaked exception %s instead of Error"
             name (Printexc.to_string exn))
  in
  List.iter
    (fun t ->
      expect
        (Printf.sprintf "threads=%d" t)
        { Engine.default_config with threads = t }
        (function Engine.Invalid_threads n -> n = t | _ -> false))
    [ 0; -1; -8 ]

(* ---- every legal config round-trips through describe ---- *)

let legal_grid =
  List.concat_map
    (fun threads ->
      List.concat_map
        (fun keep_intermediates ->
          List.filter_map
            (fun locality ->
              let cfg = { Engine.threads; locality; keep_intermediates } in
              match Engine.create cfg with
              | Ok e ->
                  Engine.shutdown e;
                  Some cfg
              | Error _ -> None)
            Locality.all_configs)
        [ true; false ])
    [ 1; 2 ]

let test_describe_roundtrip () =
  check_true "the legal grid is non-trivial" (List.length legal_grid > 10);
  List.iter
    (fun cfg ->
      let s = Engine.describe_config cfg in
      match Engine.config_of_string s with
      | Ok cfg' ->
          check_true (s ^ " round-trips exactly") (cfg = cfg')
      | Error msg -> Alcotest.fail (s ^ " failed to parse back: " ^ msg))
    legal_grid;
  (* the empty / "default" specs mean the default config *)
  check_true "empty spec is the default"
    (Engine.config_of_string "" = Ok Engine.default_config);
  check_true "'default' spec is the default"
    (Engine.config_of_string "default" = Ok Engine.default_config);
  check_true "junk keys are a parse error"
    (match Engine.config_of_string "turbo=yes" with
    | Error _ -> true
    | Ok _ -> false);
  (* serving admission parameters belong to Serve.config, the telemetry
     sink is injected through [create ?obs], calibration belongs to the
     selecting oracle (the engine executes and does not predict), and the
     shared-subtree cache and the workspace axis are gone (every engine
     executes from its arena): none of these is an engine key *)
  List.iter
    (fun spec ->
      check_true (spec ^ " is an unknown-key error")
        (match Engine.config_of_string spec with
        | Error msg -> contains msg "unknown key"
        | Ok _ -> false))
    [ "queue_bound=64"; "batch_window=0"; "telemetry=on"; "journal=on";
      "calibration=refit"; "calibration=off"; "calibration=affine";
      "cache=on"; "workspace=on"; "workspace=off" ];
  (* a parsed spec always passes [create]: a bad thread count is the typed
     Invalid_threads message at parse time *)
  List.iter
    (fun t ->
      check_true
        (Printf.sprintf "threads=%d is a parse error" t)
        (Engine.config_of_string (Printf.sprintf "threads=%d" t)
        = Error (Engine.error_to_string (Engine.Invalid_threads t))))
    [ 0; -2 ];
  (* the format axis: the grid covers every format, the names parse, and
     an unknown format gets the typed Invalid_format message rather than
     generic spec noise *)
  List.iter
    (fun format ->
      check_true
        (Locality.format_to_string format ^ " configs are in the legal grid")
        (List.exists
           (fun c -> c.Engine.locality.Locality.format = format)
           legal_grid))
    Locality.all_formats;
  check_true "locality=degree+hybrid parses"
    (match Engine.config_of_string "locality=degree+hybrid" with
    | Ok cfg ->
        cfg.Engine.locality
        = { Locality.strategy = Reorder.Degree_sort; format = Locality.Hybrid }
    | Error _ -> false);
  check_true "unknown format is the typed Invalid_format error"
    (match Engine.config_of_string "locality=identity+xyz" with
    | Error msg ->
        contains msg "unknown sparse format"
        && String.equal msg
             (Engine.error_to_string (Engine.Invalid_format "xyz"))
    | Ok _ -> false)

(* ---- the layout axis is CSR + hybrid under every ordering ---- *)

let test_layout_axis () =
  check_int "4 orderings x 2 formats" 8 (List.length Locality.all_configs);
  check_true "the default layout comes first"
    (Locality.is_default (List.hd Locality.all_configs));
  List.iter
    (fun spec ->
      check_true (spec ^ " is a parse error")
        (match Engine.config_of_string spec with
        | Error msg -> contains msg "unknown sparse format"
        | Ok _ -> false))
    [ "locality=identity+bsr"; "locality=degree+cbm" ]

(* ---- the differential acceptance grid ----

   Every legal engine configuration must execute GCN, GAT and GIN
   bitwise-identically to the heap reference (no pool, no arena).
   GIN's Sparse_add makes entry order part of the output, so a permuted
   layout legitimately produces a structurally different (equal-as-math)
   sparse sum — non-default localities are skipped for it, exactly as the
   locality suite always has. *)

let test_differential_grid () =
  let graph = G.Generators.erdos_renyi ~seed:17 ~n:50 ~avg_degree:5. () in
  List.iter
    (fun name ->
      let model = Mp.Mp_models.find name in
      let low, compiled = compile_model model in
      let _, bindings = setup_bindings ~k_in:9 ~k_out:7 low graph in
      let grid =
        List.filter
          (fun cfg ->
            cfg.Engine.threads = 1
            && (name <> "gin" || Locality.is_default cfg.Engine.locality))
          legal_grid
      in
      List.iter
        (fun (c : Codegen.ccand) ->
          let reference = heap_exec ~graph ~bindings c.Codegen.plan in
          List.iter
            (fun cfg ->
              let engine = Engine.create_exn cfg in
              (* two runs so the second reuses the first's arena *)
              ignore
                (Executor.exec ~engine ~timing:Executor.Measure ~graph
                   ~bindings c.Codegen.plan);
              let r =
                Executor.exec ~engine ~timing:Executor.Measure ~graph
                  ~bindings c.Codegen.plan
              in
              check_true
                (Printf.sprintf "%s/%s under %s bitwise" name
                   c.Codegen.plan.Plan.name
                   (Engine.describe_config cfg))
                (value_bits_equal reference r.Executor.output);
              Engine.shutdown engine)
            grid)
        compiled.Codegen.candidates)
    [ "gcn"; "gat"; "gin" ]

let test_multicore_engine_bitwise () =
  (* one spawned-pool configuration, exercised separately so the grid above
     stays single-threaded and fast *)
  let graph = G.Generators.erdos_renyi ~seed:21 ~n:64 ~avg_degree:6. () in
  let model = Mp.Mp_models.find "gcn" in
  let low, compiled = compile_model model in
  let _, bindings = setup_bindings ~k_in:8 ~k_out:8 low graph in
  let plan = (List.hd compiled.Codegen.candidates).Codegen.plan in
  let reference = heap_exec ~graph ~bindings plan in
  let engine = Engine.create_exn { Engine.default_config with threads = 2 } in
  let r =
    Executor.exec ~engine ~timing:Executor.Measure ~graph ~bindings plan
  in
  Engine.shutdown engine;
  check_true "threads=2 engine output bitwise"
    (value_bits_equal reference r.Executor.output)

(* ---- the cost monitor's pairs ----

   The executor prices every measured step with the analytic host-CPU
   profile, over the step's kernels sized from its actual operands, at the
   engine's thread count. Rebuild each step's operands from the kept
   intermediates and check every recorded prediction bitwise, in recording
   order (setup steps, then the iteration's). *)

let test_costmon_pairs_analytic () =
  let graph = G.Generators.erdos_renyi ~seed:29 ~n:48 ~avg_degree:5. () in
  List.iter
    (fun name ->
      let low, compiled = compile_model (Mp.Mp_models.find name) in
      let _, bindings = setup_bindings ~k_in:7 ~k_out:6 low graph in
      List.iter
        (fun threads ->
          List.iter
            (fun (c : Codegen.ccand) ->
              let plan = c.Codegen.plan in
              let obs =
                Granii_obs.Obs.create ~trace:false ~metrics:false ()
              in
              let engine =
                Engine.create_exn ~obs { Engine.default_config with threads }
              in
              let r =
                Executor.exec ~engine ~timing:Executor.Measure ~graph
                  ~bindings plan
              in
              Engine.shutdown engine;
              let value = function
                | Plan.Input "__graph__" -> Executor.Vsparse graph.G.Graph.adj
                | Plan.Input n -> List.assoc n bindings
                | Plan.Computed i -> List.assoc i r.Executor.intermediates
              in
              let predicted (s : Plan.step) =
                List.fold_left
                  (fun acc k ->
                    acc
                    +. Cost_oracle.kernel_time ~threads
                         Granii_hw.Hw_profile.cpu k)
                  0.
                  (Dispatch.kernels_of_step s.Plan.prim graph
                     (Array.of_list (List.map value s.Plan.args))
                     (value (Plan.Computed s.Plan.idx)))
              in
              let in_order =
                List.filter (fun s -> s.Plan.phase = Plan.Setup) plan.Plan.steps
                @ List.filter
                    (fun s -> s.Plan.phase = Plan.Per_iteration)
                    plan.Plan.steps
              in
              let cm = Option.get obs.Granii_obs.Obs.costmon in
              List.iter
                (fun prim ->
                  let expected =
                    List.filter_map
                      (fun (s : Plan.step) ->
                        if Primitive.name s.Plan.prim = prim then
                          Some (predicted s)
                        else None)
                      in_order
                  in
                  let got =
                    List.map fst
                      (Granii_obs.Obs.Cost_monitor.series_pairs cm prim)
                  in
                  check_true
                    (Printf.sprintf "%s/%s threads=%d %s predictions bitwise"
                       name plan.Plan.name threads prim)
                    (bits_equal (Array.of_list expected) (Array.of_list got)))
                (Granii_obs.Obs.Cost_monitor.prims cm);
              check_int
                (Printf.sprintf "%s/%s threads=%d: one pair per step" name
                   plan.Plan.name threads)
                (List.length plan.Plan.steps)
                (List.fold_left
                   (fun acc p ->
                     acc + Granii_obs.Obs.Cost_monitor.runs cm p)
                   0
                   (Granii_obs.Obs.Cost_monitor.prims cm)))
            compiled.Codegen.candidates)
        [ 1; 2 ])
    [ "gcn"; "gat" ]

(* ---- outputs belong to the caller ----

   The arena is reclaimed when the engine's next run begins, so an output
   that still lived there would be overwritten by the second run, which
   reads different parameters and features. Checked on a default engine and
   on one sharing an injected arena, as a serving tenant's requests do. *)

let test_output_survives_next_run () =
  let graph = G.Generators.erdos_renyi ~seed:23 ~n:40 ~avg_degree:4. () in
  List.iter
    (fun name ->
      let low, compiled = compile_model (Mp.Mp_models.find name) in
      let _, bindings = setup_bindings ~k_in:6 ~k_out:5 low graph in
      let _, other = setup_bindings ~seed:97 ~k_in:6 ~k_out:5 low graph in
      List.iter
        (fun (c : Codegen.ccand) ->
          let plan = c.Codegen.plan in
          List.iter (fun (arena, engine) ->
          let first =
            (Executor.exec ~engine ~timing:Executor.Measure ~graph ~bindings
               plan)
              .Executor.output
          in
          let snapshot =
            match first with
            | Executor.Vdense d -> Array.copy d.Dense.data
            | Executor.Vdiag d -> Array.copy d
            | Executor.Vsparse s ->
                Option.fold ~none:[||] ~some:Array.copy s.Csr.values
          in
          ignore
            (Executor.exec ~engine ~timing:Executor.Measure ~graph
               ~bindings:other plan);
          let after =
            match first with
            | Executor.Vdense d -> d.Dense.data
            | Executor.Vdiag d -> d
            | Executor.Vsparse s -> Option.value ~default:[||] s.Csr.values
          in
          check_true
            (Printf.sprintf "%s/%s output keeps its bits after a second run (%s)"
               name plan.Plan.name arena)
            (bits_equal snapshot after))
            [ ("own arena", Engine.default ());
              ( "injected arena",
                Engine.create_exn
                  ~workspace:(Granii_tensor.Workspace.create ())
                  Engine.default_config ) ])
        compiled.Codegen.candidates)
    [ "gcn"; "gat"; "gin" ]

(* ---- graph fingerprint ---- *)

(* Two graphs that agree everywhere except deep inside [col_idx]: a
   2,000-node ring plus one chord from node 1500, to 1700 or to 1800. A
   fingerprint that hashes only a bounded prefix of the adjacency arrays
   cannot tell them apart. *)
let test_fingerprint_full_content () =
  let ring_with_chord c =
    G.Graph.of_edges
      ~name:(Printf.sprintf "ring+1500-%d" c)
      ~n:2000
      ((1500, c) :: List.init 2000 (fun i -> (i, (i + 1) mod 2000)))
  in
  let a = ring_with_chord 1700 and b = ring_with_chord 1800 in
  check_int "same node count" (G.Graph.n_nodes a) (G.Graph.n_nodes b);
  check_int "same edge count" (G.Graph.n_edges a) (G.Graph.n_edges b);
  check_true "fingerprints differ"
    (not
       (String.equal (G.Graph.fingerprint a) (G.Graph.fingerprint b)));
  check_true "a graph's fingerprint is stable"
    (String.equal (G.Graph.fingerprint a)
       (G.Graph.fingerprint (ring_with_chord 1700)))

(* ---- injected resources normalize the stored config ---- *)

let test_injected_resources_normalize () =
  let e = Engine.default () in
  check_true "bare default engine is the default config"
    (Engine.config e = Engine.default_config);
  check_true "an engine built without ?obs has the disabled sink"
    (not (Granii_obs.Obs.enabled (Engine.obs e)));
  let live = Granii_obs.Obs.create () in
  let e = Engine.create_exn ~obs:live Engine.default_config in
  check_true "an injected sink is the one stored" (Engine.obs e == live);
  check_true "injecting a sink leaves the config untouched"
    (Engine.config e = Engine.default_config);
  let ws = Granii_tensor.Workspace.create () in
  let cfg = { Engine.default_config with keep_intermediates = false } in
  let e = Engine.create_exn ~workspace:ws cfg in
  check_true "an injected workspace leaves the config untouched"
    (Engine.config e = cfg);
  check_true "injected workspace is the one stored" (Engine.workspace e == ws);
  check_true "every engine owns an arena of its own"
    (not (Engine.workspace (Engine.default ()) == Engine.workspace (Engine.default ())))

let suite =
  [ Alcotest.test_case "illegal configs are typed errors" `Quick
      test_illegal_typed;
    Alcotest.test_case "layout axis is csr + hybrid" `Quick test_layout_axis;
    Alcotest.test_case "legal configs round-trip describe" `Quick
      test_describe_roundtrip;
    Alcotest.test_case "differential grid vs seed path" `Quick
      test_differential_grid;
    Alcotest.test_case "multicore engine bitwise" `Quick
      test_multicore_engine_bitwise;
    Alcotest.test_case "cost-monitor pairs are analytic host-CPU" `Quick
      test_costmon_pairs_analytic;
    Alcotest.test_case "output survives the engine's next run" `Quick
      test_output_survives_next_run;
    Alcotest.test_case "fingerprint digests the full adjacency" `Quick
      test_fingerprint_full_content;
    Alcotest.test_case "injected resources normalize config" `Quick
      test_injected_resources_normalize ]
