module Obs = Granii_obs.Obs

type choice = {
  candidate : Codegen.ccand;
  predicted_cost : float;
  selection_time : float;
  considered : int;
  used_cost_models : bool;
}

let scenario_of ~k_in ~k_out = if k_in >= k_out then Dim.Shrinking else Dim.Growing

let rank ~oracle ~feats ~env ~iterations (compiled : Codegen.t) =
  let scenario = scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out in
  let cands = Codegen.for_scenario compiled scenario in
  let scored =
    List.map
      (fun (c : Codegen.ccand) ->
        (c, Cost_oracle.predict_plan oracle feats ~env ~iterations c.Codegen.plan))
      cands
  in
  List.sort (fun (_, a) (_, b) -> compare a b) scored

let measure ?seed ?pool ?obs ~timing ~graph ~bindings ~env ~iterations
    (compiled : Codegen.t) =
  let scenario = scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out in
  let cands = Codegen.for_scenario compiled scenario in
  let engine = Engine.create_exn ?pool ?obs Engine.default_config in
  List.map
    (fun (c : Codegen.ccand) ->
      let report =
        Executor.exec ?seed ~engine ~timing ~graph ~bindings c.Codegen.plan
      in
      ( c,
        Executor.total_time ~setup:report.Executor.setup_time
          ~iteration:report.Executor.iteration_time ~iterations ))
    cands
  |> List.sort (fun (_, a) (_, b) -> compare a b)

(* Selection telemetry: a retro-dated "select" span carrying the measured
   selection_time (so trace and [choice.selection_time] agree exactly) plus
   the candidates-considered counter. *)
let record_selection obs ~name ~plan ~considered ~selection_time =
  match obs with
  | None -> ()
  | Some o ->
      (match o.Obs.trace with
      | None -> ()
      | Some t ->
          let sp = Obs.Trace.enter t ~cat:"engine" name in
          Obs.Trace.exit_ t ~dur:selection_time
            ~attrs:[ ("plan", plan); ("considered", string_of_int considered) ]
            sp);
      Obs.count o "select.runs" 1;
      Obs.count o "select.candidates.considered" considered;
      (match o.Obs.metrics with
      | None -> ()
      | Some m -> Obs.Metrics.observe m "select.time" selection_time)

let select ?obs ~oracle ~feats ~env ~iterations compiled =
  let result, selection_time =
    Granii_hw.Timer.measure_wall (fun () ->
        let scenario = scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out in
        match Codegen.for_scenario compiled scenario with
        | [] ->
            invalid_arg
              (Printf.sprintf "Selector.select: no candidate for scenario in %s"
                 compiled.Codegen.model_name)
        | [ only ] ->
            (* Fig. 7 fast path: the embedding-size guard already decides. *)
            ( only,
              Cost_oracle.predict_plan oracle feats ~env ~iterations
                only.Codegen.plan,
              1,
              false )
        | several ->
            let scored =
              List.map
                (fun (c : Codegen.ccand) ->
                  ( c,
                    Cost_oracle.predict_plan oracle feats ~env ~iterations
                      c.Codegen.plan ))
                several
            in
            let best, best_cost =
              List.fold_left
                (fun ((_, bc) as best) ((_, c) as cand) ->
                  if c < bc then cand else best)
                (List.hd scored) (List.tl scored)
            in
            (best, best_cost, List.length several, true))
  in
  let candidate, predicted_cost, considered, used_cost_models = result in
  record_selection obs ~name:"select" ~plan:candidate.Codegen.plan.Plan.name
    ~considered ~selection_time;
  { candidate; predicted_cost; selection_time; considered; used_cost_models }

type localized_choice = { lchoice : choice; config : Locality.config }

let select_localized ?obs ~oracle ~feats ~env ~iterations ?configs:_ compiled =
  { lchoice = select ?obs ~oracle ~feats ~env ~iterations compiled;
    config = Locality.default }
