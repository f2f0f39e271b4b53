module Dense = Granii_tensor.Dense
module Core = Granii_core

type layer = {
  l_plan : Core.Plan.t;
  l_params : Layer.params;
  l_k_in : int;
  l_k_out : int;
}

type t = {
  lowered : Granii_mp.Lower.lowered;
  layers : layer list;
}

let build ?(seed = 0) ~oracle ~graph ~compiled ~lowered ~dims ?(iterations = 100)
    () =
  if List.length dims < 2 then invalid_arg "Stack.build: need at least two dims";
  let n = Granii_graph.Graph.n_nodes graph in
  let nnz = Granii_graph.Graph.n_edges graph + n in
  let feats = Core.Featurizer.extract graph in
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let layers =
    List.mapi
      (fun i (k_in, k_out) ->
        let env = { Core.Dim.n; nnz; k_in; k_out } in
        let choice =
          Core.Selector.select ~oracle ~feats ~env ~iterations compiled
        in
        { l_plan = choice.Core.Selector.candidate.Core.Codegen.plan;
          l_params = Layer.init_params ~seed:(seed + (37 * i)) ~env lowered;
          l_k_in = k_in;
          l_k_out = k_out })
      (pairs dims)
  in
  { lowered; layers }

let dense_output (r : Core.Executor.report) =
  match r.Core.Executor.output with
  | Core.Executor.Vdense d -> d
  | Core.Executor.Vsparse _ | Core.Executor.Vdiag _ ->
      invalid_arg "Stack: layer output is not dense"

let forward ?engine ?(keep_reports = true) ~graph ~features stack =
  let engine =
    match engine with Some e -> e | None -> Core.Engine.default ()
  in
  (* kept intermediates live until their arena's next run: with reports
     kept, each layer gets an arena of its own *)
  let layer_engine () =
    if not keep_reports then engine
    else
      let open Core.Engine in
      create_exn ?pool:(pool engine) ~obs:(obs engine) ~oracle:(oracle engine)
        (config engine)
  in
  let h = ref features in
  let reports = ref [] in
  List.iter
    (fun layer ->
      let bindings = Layer.bindings ~graph ~h:!h layer.l_params in
      let report =
        Core.Executor.exec ~engine:(layer_engine ())
          ~timing:Core.Executor.Measure ~graph ~bindings layer.l_plan
      in
      h := dense_output report;
      if keep_reports then reports := (report, bindings) :: !reports)
    stack.layers;
  (!h, List.rev !reports)

type history = {
  losses : float array;
  train_accuracy : float;
  final : t;
}

let prefix_names i kvs = List.map (fun (k, v) -> (Printf.sprintf "l%d/%s" i k, v)) kvs
let unprefix_names i kvs =
  let p = Printf.sprintf "l%d/" i in
  let plen = String.length p in
  List.map (fun (k, v) -> (String.sub k plen (String.length k - plen), v)) kvs

let train ?(seed = 0) ?mask ~epochs ~optimizer ~graph ~features ~labels stack =
  if epochs <= 0 then invalid_arg "Stack.train: epochs must be positive";
  ignore seed;
  let losses = Array.make epochs 0. in
  let stack = ref stack in
  let last_logits = ref None in
  for epoch = 0 to epochs - 1 do
    let logits, reports = forward ~graph ~features !stack in
    last_logits := Some logits;
    let loss, dlogits = Loss.softmax_cross_entropy ?mask ~logits ~labels () in
    losses.(epoch) <- loss;
    (* reverse through the layers, threading the H gradient down *)
    let layer_arr = Array.of_list !stack.layers in
    let report_arr = Array.of_list reports in
    let n_layers = Array.length layer_arr in
    let grads_per_layer = Array.make n_layers [] in
    let seed_grad = ref dlogits in
    for i = n_layers - 1 downto 0 do
      let layer = layer_arr.(i) in
      let report, bindings = report_arr.(i) in
      let grads =
        Autodiff.backward ~plan:layer.l_plan ~graph ~bindings ~forward:report
          ~seed:!seed_grad
      in
      grads_per_layer.(i) <- grads;
      if i > 0 then
        match List.assoc_opt "H" grads with
        | Some g -> seed_grad := g
        | None ->
            invalid_arg "Stack.train: layer does not propagate a feature gradient"
    done;
    let new_layers =
      List.mapi
        (fun i layer ->
          let stepped =
            Optimizer.step optimizer
              (prefix_names i layer.l_params)
              (prefix_names i grads_per_layer.(i))
          in
          { layer with l_params = unprefix_names i stepped })
        (Array.to_list layer_arr)
    in
    stack := { !stack with layers = new_layers }
  done;
  let train_accuracy =
    match !last_logits with
    | Some logits -> Loss.accuracy ?mask ~logits ~labels ()
    | None -> 0.
  in
  { losses; train_accuracy; final = !stack }

let plans stack = List.map (fun l -> l.l_plan) stack.layers
