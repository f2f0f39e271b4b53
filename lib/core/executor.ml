module Workspace = Granii_tensor.Workspace
module Dense = Granii_tensor.Dense
module Csr = Granii_sparse.Csr
module K = Granii_hw.Kernel_model
module Timer = Granii_hw.Timer
module Obs = Granii_obs.Obs

type value = Dispatch.value =
  | Vdense of Granii_tensor.Dense.t
  | Vsparse of Granii_sparse.Csr.t
  | Vdiag of Granii_tensor.Vector.t

type timing = Measure | Simulate of Granii_hw.Hw_profile.t

type report = {
  output : value;
  setup_time : float;
  iteration_time : float;
  layout_time : float;
  per_step : (Primitive.t * Plan.phase * float) list;
  intermediates : (int * value) list;
}

exception Execution_error = Dispatch.Execution_error

let err fmt = Format.kasprintf (fun s -> raise (Execution_error s)) fmt

let shape_of = Dispatch.shape_of
let pp_value = Dispatch.pp_value

let apply ?pool ?ws prim graph args =
  Dispatch.exec { Dispatch.pool; ws; localize = None } prim graph
    (Array.of_list args)

(* Analytic time of one executed step: the kernel-model prediction for its
   instantiated kernels, with deterministic jitter seeded per step index. *)
let analytic_time ~threads ~seed profile (s : Plan.step) graph args v =
  List.fold_left
    (fun acc k ->
      acc +. K.time_noisy ~threads profile ~seed:(seed + s.Plan.idx) k)
    0.
    (Dispatch.kernels_of_step s.Plan.prim graph args v)

(* ---- telemetry helpers ----

   Everything below is guarded on the sink's components, so a disabled
   engine pays one option match per use and allocates nothing. *)

let phase_name = function
  | Plan.Setup -> "setup"
  | Plan.Per_iteration -> "iteration"

let step_attrs ~threads ~ctx (s : Plan.step) args v =
  let r, c = Dispatch.shape_of v in
  let attrs =
    [ ("prim", Primitive.name s.Plan.prim);
      ("phase", phase_name s.Plan.phase);
      ("format",
       Dispatch.fmt_to_string (Dispatch.format_of ctx s.Plan.prim args));
      ("shape", Printf.sprintf "%dx%d" r c);
      ("threads", string_of_int threads) ]
  in
  match v with
  | Vsparse m -> ("nnz", string_of_int (Csr.nnz m)) :: attrs
  | _ -> attrs

let step_span_enter tr (s : Plan.step) =
  match tr with
  | None -> None
  | Some t -> Some (Obs.Trace.enter t ~cat:"step" (Primitive.name s.Plan.prim))

let step_span_exit tr sp ~threads ~ctx (s : Plan.step) args v elapsed =
  match (tr, sp) with
  | Some t, Some sp ->
      Obs.Trace.exit_ t ~dur:elapsed ~attrs:(step_attrs ~threads ~ctx s args v)
        sp
  | _ -> ()

let step_observe (obs : Obs.t) (s : Plan.step) elapsed =
  (* guard-first on each component so a disabled sink costs one option
     match and allocates nothing *)
  (match obs.Obs.journal with
  | None -> ()
  | Some j ->
      Obs.Journal.record j Obs.Journal.Step
        ~tag:(Primitive.name s.Plan.prim) ~v:elapsed);
  match obs.Obs.metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.observe m ("step." ^ Primitive.name s.Plan.prim) elapsed

(* Predicted-vs-measured pair for the cost monitor: the analytic
   host-CPU prediction of the step's instantiated kernels against the wall
   clock — only computed when the monitor is live, and only for measured
   steps. The prediction is uncorrected, so a selecting oracle calibrated
   from these pairs never chases its own tail. *)
let costmon_record (obs : Obs.t) ~threads (s : Plan.step) graph args v measured =
  match obs.Obs.costmon with
  | None -> ()
  | Some cm ->
      let predicted =
        List.fold_left
          (fun acc k ->
            acc +. Cost_oracle.kernel_time ~threads Granii_hw.Hw_profile.cpu k)
          0.
          (Dispatch.kernels_of_step s.Plan.prim graph args v)
      in
      Obs.Cost_monitor.record cm ~prim:(Primitive.name s.Plan.prim) ~predicted
        ~measured

let bracket_span tr ~cat name =
  match tr with None -> None | Some t -> Some (Obs.Trace.enter t ~cat name)

let bracket_exit tr sp ?attrs () =
  match (tr, sp) with
  | Some t, Some sp -> Obs.Trace.exit_ t ?attrs sp
  | _ -> ()

(* Post-run metrics: workspace arena deltas plus the calling domain's
   major-heap words. [Gc.counters] is exact for this domain without forcing
   a collection; [Gc.quick_stat]'s OCaml 5 figure sums every domain's
   words as sampled at their last minor collections, so a gauge read from
   it can stand still across runs. *)
let run_metrics (obs : Obs.t) ws (before : Workspace.stats) =
  match obs.Obs.metrics with
  | None -> ()
  | Some m ->
      let s = Workspace.stats ws in
      Obs.Metrics.add m "workspace.alloc.hits"
        (s.Workspace.hits - before.Workspace.hits);
      Obs.Metrics.add m "workspace.alloc.misses"
        (s.Workspace.misses - before.Workspace.misses);
      Obs.Metrics.set_gauge m "workspace.bytes.held"
        (float_of_int (8 * s.Workspace.held_words));
      Obs.Metrics.set_gauge m "workspace.bytes.issued"
        (float_of_int (8 * s.Workspace.issued_words));
      let _, _, major_words = Gc.counters () in
      Obs.Metrics.set_gauge m "gc.major_words" major_words;
      Obs.Metrics.add m "engine.runs" 1

(* The caller's copy of the output, off the arena the next run reclaims (CSR
   structure never comes from the arena). *)
let copy_value = function
  | Vdense { Dense.rows; cols; data } ->
      Vdense (Dense.of_flat ~rows ~cols (Array.copy data))
  | Vsparse ({ Csr.values = Some v; _ } as s) ->
      Vsparse (Csr.with_values s (Array.copy v))
  | Vsparse _ as s -> s
  | Vdiag d -> Vdiag (Array.copy d)

(* ---- the dispatch loop ----

   All policy lives elsewhere: the engine owns pool/arena/layout and was
   validated at construction. One loop serves a single run and the
   steady state alike — a single run is [iterations = 1]. Argument arrays
   are built once per step with input operands resolved up front, setup
   steps run once, and each further iteration re-executes only the
   per-iteration steps after returning the previous iteration's buffers to
   the arena, so the loop body performs no per-step minor allocation beyond
   what the kernels themselves do.

   Under [intermediates=drop] each value's buffer is recycled after its
   last reader (in execution order, see {!Liveness}); setup values are read
   again by every iteration, so they are recycled during the last iteration
   only. *)

let exec_iterations ?(seed = 0) ~engine ~timing ~graph ~bindings ~iterations
    (plan : Plan.t) =
  if iterations < 1 then invalid_arg "Executor.exec_iterations: iterations < 1";
  let pool = Engine.pool engine and ws = Engine.workspace engine in
  let obs = Engine.obs engine in
  let tr = obs.Obs.trace in
  let exec_span = bracket_span tr ~cat:"engine" "execute" in
  let live =
    if Engine.keep_intermediates engine then None
    else Some (Liveness.analyze plan)
  in
  Workspace.reclaim ws;
  let ws_before = Workspace.stats ws in
  let orig_n = Granii_graph.Graph.n_nodes graph in
  let layout_span = bracket_span tr ~cat:"engine" "layout" in
  let lstate, graph, bindings =
    Pass.Layout.enter ~locality:(Engine.locality engine) ~graph ~bindings
  in
  List.iter (fun (_, v) -> Pass.Layout.register lstate v) bindings;
  bracket_exit tr layout_span ~attrs:[ ("stage", "enter") ] ();
  let ctx =
    { Dispatch.pool; ws = Some ws; localize = Pass.Layout.form_of lstate }
  in
  let steps = Array.of_list plan.Plan.steps in
  let n = Array.length steps in
  let slots : value option array = Array.make n None in
  let graph_token = Vsparse graph.Granii_graph.Graph.adj in
  let resolve name =
    if String.equal name "__graph__" then graph_token
    else
      match List.assoc_opt name bindings with
      | Some v -> v
      | None -> err "unbound input %s" name
  in
  let args_src = Array.map (fun (s : Plan.step) -> Array.of_list s.Plan.args) steps in
  (* input operands never change across iterations: resolve them once; the
     placeholder in Computed positions is overwritten before first use *)
  let args_val =
    Array.map
      (Array.map (function
        | Plan.Input name -> resolve name
        | Plan.Computed _ -> graph_token))
      args_src
  in
  let refresh_args i =
    let src = args_src.(i) and dst = args_val.(i) in
    for j = 0 to Array.length src - 1 do
      match Array.unsafe_get src j with
      | Plan.Computed c -> (
          match slots.(c) with
          | Some v -> Array.unsafe_set dst j v
          | None -> err "step t%d used before being computed" c)
      | Plan.Input _ -> ()
    done;
    dst
  in
  let is_iter =
    Array.map (fun (s : Plan.step) -> s.Plan.phase = Plan.Per_iteration) steps
  in
  let per_step_time = Array.make n 0. in
  let threads = Engine.threads engine in
  let run_step i =
    let s = Array.unsafe_get steps i in
    let args = refresh_args i in
    let sp = step_span_enter tr s in
    let v, t =
      match timing with
      | Measure ->
          let t0 = Timer.wall () in
          let v = Dispatch.exec ctx s.Plan.prim graph args in
          let t = Timer.wall () -. t0 in
          costmon_record obs ~threads s graph args v t;
          (v, t)
      | Simulate profile ->
          let v = Dispatch.exec ctx s.Plan.prim graph args in
          (v, analytic_time ~threads ~seed profile s graph args v)
    in
    step_span_exit tr sp ~threads ~ctx s args v t;
    step_observe obs s t;
    slots.(i) <- Some v;
    per_step_time.(i) <- t;
    t
  in
  let give_back_unshared d v =
    List.iter
      (fun a ->
        (* a fold that degenerates to the identity can make two slots (or a
           slot and a binding) share one backing array — never recycle an
           array a live slot still reads. Bindings are safe automatically:
           the workspace only takes back buffers it issued. *)
        let shared = ref false in
        Array.iteri
          (fun j s ->
            match s with
            | Some sv when j <> d && Dispatch.shares_backing a sv ->
                shared := true
            | _ -> ())
          slots;
        if not !shared then Workspace.give_back ctx.Dispatch.ws a)
      (Dispatch.backing_arrays v)
  in
  let free_dead_after ~last i =
    match live with
    | None -> ()
    | Some lv ->
        List.iter
          (fun d ->
            match slots.(d) with
            | Some v when last || is_iter.(d) ->
                give_back_unshared d v;
                slots.(d) <- None
            | _ -> ())
          (Liveness.dead_after lv i)
  in
  let setup_time = ref 0. in
  for i = 0 to n - 1 do
    if not is_iter.(i) then begin
      setup_time := !setup_time +. run_step i;
      (* setup outputs are iteration-stable: candidates for the localized
         form *)
      Option.iter (Pass.Layout.register lstate) slots.(i);
      free_dead_after ~last:true i
    end
  done;
  (* iteration slots are released between iterations; each of the first
     [iterations - 1] iterations recycles everything it produced *)
  let release_iteration_slots () =
    for i = 0 to n - 1 do
      match slots.(i) with
      | Some v when is_iter.(i) ->
          give_back_unshared i v;
          slots.(i) <- None
      | _ -> ()
    done
  in
  let total_iter_time = ref 0. in
  for it = 1 to iterations do
    if it > 1 then release_iteration_slots ();
    let it_span =
      match tr with
      | None -> None
      | Some t ->
          let sp = Obs.Trace.enter t ~cat:"engine" "iteration" in
          Obs.Trace.add_attrs sp [ ("i", string_of_int it) ];
          Some sp
    in
    for i = 0 to n - 1 do
      if is_iter.(i) then begin
        total_iter_time := !total_iter_time +. run_step i;
        free_dead_after ~last:(it = iterations) i
      end
    done;
    bracket_exit tr it_span ()
  done;
  let output =
    match plan.Plan.output with
    | Plan.Computed i -> (
        match slots.(i) with
        | Some v -> v
        | None -> err "plan output t%d missing" i)
    | Plan.Input name -> resolve name
  in
  let per_step =
    Array.to_list
      (Array.mapi
         (fun i (s : Plan.step) -> (s.Plan.prim, s.Plan.phase, per_step_time.(i)))
         steps)
  in
  let intermediates =
    if Engine.keep_intermediates engine then begin
      let acc = ref [] in
      for i = n - 1 downto 0 do
        match slots.(i) with Some v -> acc := (i, v) :: !acc | None -> ()
      done;
      !acc
    end
    else []
  in
  let exit_span = bracket_span tr ~cat:"engine" "layout" in
  let output, intermediates, layout_time =
    Pass.Layout.exit_ lstate ~n:orig_n output intermediates
  in
  bracket_exit tr exit_span ~attrs:[ ("stage", "exit") ] ();
  let output = copy_value output in
  run_metrics obs ws ws_before;
  bracket_exit tr exec_span
    ~attrs:
      [ ("plan", plan.Plan.name); ("iterations", string_of_int iterations) ]
    ();
  { output;
    setup_time = !setup_time;
    iteration_time = !total_iter_time /. float_of_int iterations;
    layout_time;
    per_step;
    intermediates }

let exec ?seed ~engine ~timing ~graph ~bindings plan =
  exec_iterations ?seed ~engine ~timing ~graph ~bindings ~iterations:1 plan

let estimate ?(seed = 0) ~profile ~env (plan : Plan.t) =
  let setup = ref 0. and iter = ref 0. in
  List.iter
    (fun (s : Plan.step) ->
      let t =
        List.fold_left
          (fun acc k -> acc +. K.time_noisy profile ~seed:(seed + s.Plan.idx) k)
          0.
          (Primitive.to_kernels env s.Plan.prim)
      in
      match s.Plan.phase with
      | Plan.Setup -> setup := !setup +. t
      | Plan.Per_iteration -> iter := !iter +. t)
    plan.Plan.steps;
  (!setup, !iter)

let total_time ~setup ~iteration ~iterations =
  setup +. (float_of_int iterations *. iteration)
