module Dense = Granii_tensor.Dense
module Engine = Granii_core.Engine
module Executor = Granii_core.Executor
module Plan = Granii_core.Plan

type stats = {
  width : int;
  shared_steps : int;
  widened_steps : int;
  scattered_steps : int;
}

let exec_batch ?pool ~graph ~bindings ~input ~features (plan : Plan.t) =
  if features = [] then invalid_arg "Batch.exec_batch: empty batch";
  let n_nodes = Granii_graph.Graph.n_nodes graph in
  List.iter
    (fun (f : Dense.t) ->
      if f.Dense.rows <> n_nodes then
        invalid_arg
          (Printf.sprintf
             "Batch.exec_batch: feature rows %d do not match graph nodes %d"
             f.Dense.rows n_nodes))
    features;
  let engine = Engine.create_exn ?pool Engine.default_config in
  let outputs =
    List.map
      (fun f ->
        (Executor.exec ~engine ~timing:Executor.Measure ~graph
           ~bindings:((input, Executor.Vdense f) :: bindings)
           plan)
          .Executor.output)
      features
  in
  ( outputs,
    { width = List.length features;
      shared_steps = 0;
      widened_steps = 0;
      scattered_steps = List.length plan.Plan.steps } )
