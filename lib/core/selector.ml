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

type localized_choice = {
  lchoice : choice;
  config : Locality.config;
  base_cost : float;
      (* predicted cost of the same candidate under the default config *)
}

(* Joint {ordering × format × candidate} argmin. The base prediction only
   depends on the candidate; each configuration's analytic layout
   adjustment is applied as a {e relative} factor — the analytic model is
   consulted for how much the layout changes the plan, and that ratio
   scales the cost model's own base prediction. For the [Analytic] model
   the two scales coincide and this reduces to [base + adjustment]; for a
   [Learned] model (GBRT log-runtime scale) an absolute analytic delta
   could dwarf the base and go negative. The profile-less Flops model has
   no layout terms at all — the minimum is then the legacy choice. The
   comparison is a strict [<] with the default configuration enumerated
   first, so a configuration must be predicted strictly cheaper to
   displace the legacy path. *)
let rank_localized ~oracle ~feats ~env ~iterations ?(configs = Locality.all_configs)
    (compiled : Codegen.t) =
  let scenario = scenario_of ~k_in:env.Dim.k_in ~k_out:env.Dim.k_out in
  let cands = Codegen.for_scenario compiled scenario in
  let profile = Cost_oracle.profile oracle in
  let threads = feats.Featurizer.threads in
  let stats = feats.Featurizer.stats in
  let scored =
    List.concat_map
      (fun (c : Codegen.ccand) ->
        let base =
          Cost_oracle.predict_plan oracle feats ~env ~iterations
            c.Codegen.plan
        in
        let analytic_base =
          match profile with
          | None -> 0.
          | Some p ->
              Cost_oracle.analytic_plan ~threads p ~env ~iterations
                c.Codegen.plan
        in
        List.map
          (fun config ->
            let adjusted =
              match profile with
              | None -> base
              | Some p ->
                  let adj =
                    Cost_oracle.plan_adjustment ~threads p ~stats ~env
                      ~iterations config c.Codegen.plan
                  in
                  if adj = 0. then base
                  else if analytic_base > 0. then
                    (* layout effects never flip a cost's sign: floor the
                       relative change well above zero *)
                    base
                    *. Float.max 0.05
                         ((analytic_base +. adj) /. analytic_base)
                  else base +. adj
            in
            (c, config, base, adjusted))
          configs)
      cands
  in
  List.stable_sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) scored

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

let select_localized ?obs ~oracle ~feats ~env ~iterations ?configs compiled =
  let result, selection_time =
    Granii_hw.Timer.measure_wall (fun () ->
        match
          rank_localized ~oracle ~feats ~env ~iterations ?configs compiled
        with
        | [] ->
            invalid_arg
              (Printf.sprintf
                 "Selector.select_localized: no candidate for scenario in %s"
                 compiled.Codegen.model_name)
        | (c0, cfg0, base0, cost0) :: rest ->
            let (c, cfg, base, cost), considered =
              (* stable sort + default-first enumeration already favors the
                 legacy path on ties; fold with strict < for clarity *)
              List.fold_left
                (fun (((_, _, _, bc) as best), n) ((_, _, _, cc) as cand) ->
                  ((if cc < bc then cand else best), n + 1))
                ((c0, cfg0, base0, cost0), 1)
                rest
            in
            (c, cfg, base, cost, considered))
  in
  let candidate, config, base_cost, predicted_cost, considered = result in
  record_selection obs ~name:"select_localized"
    ~plan:candidate.Codegen.plan.Plan.name ~considered ~selection_time;
  { lchoice =
      { candidate;
        predicted_cost;
        selection_time;
        considered;
        used_cost_models = considered > 1 };
    config;
    base_cost }

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
