module K = Granii_hw.Kernel_model
module Hw = Granii_hw.Hw_profile
module Obs = Granii_obs.Obs
module Gbrt = Granii_ml.Gbrt

(* ---- calibration policy ---- *)

type calibration = Off | Affine

let calibration_to_string = function
  | Off -> "off"
  | Affine -> "affine"

let calibration_of_string = function
  | "off" -> Some Off
  | "affine" -> Some Affine
  | _ -> None

(* ---- state ---- *)

type snapshot = {
  snap_version : int;
  snap_note : string;
  snap_corrections : (string * (float * float)) list;
}

type t = {
  base : Cost_model.t;
  calibration : calibration;
  fit_every : int;
  min_pairs : int;
  obs : Obs.t;
  monitor : Obs.Cost_monitor.t;
  corrections : (string, float * float) Hashtbl.t;  (* prim -> (a, b) *)
  mutable version : int;
  mutable history : snapshot list;  (* newest first, capped *)
  mutable observed : int;
  drift : Obs.Drift.t option;
}

let history_cap = 8

let of_model ?(calibration = Off) ?(fit_every = 64) ?(min_pairs = 8) ?obs
    ?monitor ?drift base =
  if fit_every < 1 then invalid_arg "Cost_oracle.of_model: fit_every < 1";
  if min_pairs < 4 then invalid_arg "Cost_oracle.of_model: min_pairs < 4";
  { base;
    calibration;
    fit_every;
    min_pairs;
    obs = (match obs with Some o -> o | None -> Obs.disabled);
    monitor =
      (match monitor with Some m -> m | None -> Obs.Cost_monitor.create ());
    corrections = Hashtbl.create 16;
    version = 0;
    history = [];
    observed = 0;
    drift =
      (match drift with
      | Some _ as d -> d
      | None ->
          (* a calibrating oracle always watches its own (corrected)
             |log error| stream for drift; a pure reader has no
             calibration pass to trigger, so no detector *)
          if calibration <> Off then
            Some (Obs.Drift.create ~level:(log 2.) "oracle.logerr")
          else None) }

let analytic profile = of_model (Cost_model.analytic profile)
let flops_only () = of_model Cost_model.flops_only
let load path = of_model (Cost_model.load path)
let save t path = Cost_model.save t.base path

let base t = t.base
let calibration t = t.calibration
let profile t = Cost_model.profile t.base

let name t =
  let n = Cost_model.name t.base in
  if t.version = 0 then n else n ^ "#v" ^ string_of_int t.version

let version t = t.version
let monitor t = t.monitor
let observed t = t.observed
let drift t = t.drift
let correction t prim = Hashtbl.find_opt t.corrections prim

(* ---- prediction ----

   [corrected] applies the affine log-space correction only when an entry
   exists, so a calibration-off oracle (no entries can ever be installed)
   reproduces the base model bit for bit. *)

let corrected t ~prim p =
  match Hashtbl.find_opt t.corrections prim with
  | None -> p
  | Some (a, b) -> if p > 0. then exp (a +. (b *. log p)) else p

let analytic_prim ~threads profile ~env prim =
  List.fold_left
    (fun acc kernel -> acc +. K.time ~threads profile kernel)
    0.
    (Primitive.to_kernels env prim)

(* The base model's prediction — exactly the old [Cost_model.predict]. *)
let raw_predict t feats ~env prim =
  let threads = feats.Featurizer.threads in
  match Cost_model.kind t.base with
  | `Flops ->
      List.fold_left
        (fun acc kernel -> acc +. K.flops kernel)
        0.
        (Primitive.to_kernels env prim)
  | `Analytic ->
      let p = Option.get (Cost_model.profile t.base) in
      analytic_prim ~threads p ~env prim
  | `Learned -> (
      let p = Option.get (Cost_model.profile t.base) in
      match Cost_model.find_model t.base (Primitive.name prim) with
      | Some model ->
          exp
            (Gbrt.predict model
               (Featurizer.primitive_input feats
                  ~dims:(Primitive.instantiated_dims env prim)))
      | None -> analytic_prim ~threads p ~env prim)

let predict t feats ~env prim =
  corrected t ~prim:(Primitive.name prim) (raw_predict t feats ~env prim)

let predict_plan t feats ~env ~iterations (plan : Plan.t) =
  let total =
    List.fold_left
      (fun acc (s : Plan.step) ->
        let c = predict t feats ~env s.Plan.prim in
        match s.Plan.phase with
        | Plan.Setup -> acc +. c
        | Plan.Per_iteration -> acc +. (float_of_int iterations *. c))
      0. plan.Plan.steps
  in
  corrected t ~prim:("plan:" ^ plan.Plan.name) total

let analytic_plan ~threads profile ~env ~iterations (plan : Plan.t) =
  List.fold_left
    (fun acc (s : Plan.step) ->
      let c = analytic_prim ~threads profile ~env s.Plan.prim in
      match s.Plan.phase with
      | Plan.Setup -> acc +. c
      | Plan.Per_iteration -> acc +. (float_of_int iterations *. c))
    0. plan.Plan.steps

let kernel_time ?threads ?gather_discount profile kernel =
  K.time ?threads ?gather_discount profile kernel

(* ---- layout adjustment (moved from Locality; the structural parts —
   layout_kernels, gather_discount — remain there) ---- *)

module Gf = Granii_graph.Graph_features

let layout_time ?threads (p : Hw.t) ~n ~nnz config =
  List.fold_left
    (fun acc k -> acc +. K.time ?threads p k)
    0.
    (Locality.layout_kernels ~n ~nnz config)

(* Per-kernel cost delta (localized minus baseline) a configuration induces.
   Only the gather-bound g-kernels respond to layout; everything else is
   unchanged. *)
let kernel_delta ?threads (p : Hw.t) (stats : Gf.t) (config : Locality.config)
    kernel =
  match kernel with
  | K.Spmm { rows; nnz; k; weighted } ->
      let d = Locality.gather_discount p stats config in
      let localized =
        match config.Locality.format with
        | Locality.Hybrid ->
            K.Spmm_hybrid { rows; nnz; k; weighted; packing = stats.Gf.ell_packing }
        | Locality.Csr -> kernel
      in
      K.time ?threads ~gather_discount:d p localized -. K.time ?threads p kernel
  | K.Sddmm _ ->
      (* the dot products gather rows of both dense operands: same locality
         credit, no format-dependent shape change (the hybrid SDDMM writes
         into the source CSR layout) *)
      let d = Locality.gather_discount p stats config in
      K.time ?threads ~gather_discount:d p kernel -. K.time ?threads p kernel
  | _ -> 0.

(* Total additive adjustment to the analytic plan cost for running [plan]
   under [config]: the one-time layout cost plus each step's kernel deltas,
   phase-weighted exactly like the base prediction. Zero for the default
   configuration. *)
let plan_adjustment ?threads (p : Hw.t) ~stats ~env ~iterations config
    (plan : Plan.t) =
  if Locality.is_default config then 0.
  else begin
    let setup = layout_time ?threads p ~n:env.Dim.n ~nnz:env.Dim.nnz config in
    List.fold_left
      (fun acc (s : Plan.step) ->
        let delta =
          List.fold_left
            (fun a k -> a +. kernel_delta ?threads p stats config k)
            0.
            (Primitive.to_kernels env s.Plan.prim)
        in
        match s.Plan.phase with
        | Plan.Setup -> acc +. delta
        | Plan.Per_iteration -> acc +. (float_of_int iterations *. delta))
      setup plan.Plan.steps
  end

(* ---- scoring: pooled Kendall inversions + mean |log error| ----

   Inversions are counted over pairs distinct on both axes. The report
   counts them per primitive and pooled across primitives; calibration
   scores the pooled count, because cross-primitive ordering is what plan
   selection consumes (a per-primitive monotone correction cannot change
   within-primitive order, only how primitives rank against each other). *)

let inversions preds meas n =
  let inv = ref 0 and cmp = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let dp = compare preds.(i) preds.(j)
      and dm = compare meas.(i) meas.(j) in
      if dp <> 0 && dm <> 0 then begin
        incr cmp;
        if dp * dm < 0 then incr inv
      end
    done
  done;
  (!inv, !cmp)

let mean_abs_log_err preds meas n =
  if n = 0 then 0.
  else begin
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. Float.abs (log (preds.(i) /. meas.(i)))
    done;
    !s /. float_of_int n
  end

(* Least-squares affine fit in log space over (ln p, ln m) pairs. A
   degenerate predictor axis (all train predictions equal) can only support
   a pure offset: b = 1, a = mean residual. The slope is clamped to keep
   the correction monotone and tame. *)
let fit_affine pairs =
  let n = List.length pairs in
  let fn = float_of_int n in
  let xs = List.map (fun (p, _) -> log p) pairs in
  let ys = List.map (fun (_, m) -> log m) pairs in
  let mx = List.fold_left ( +. ) 0. xs /. fn in
  let my = List.fold_left ( +. ) 0. ys /. fn in
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. mx) *. (x -. mx))) 0. xs
  in
  let cov =
    List.fold_left2
      (fun acc x y -> acc +. ((x -. mx) *. (y -. my)))
      0. xs ys
  in
  let b = if var < 1e-12 then 1. else Float.max 0.1 (Float.min 10. (cov /. var)) in
  let a = my -. (b *. mx) in
  (a, b)

(* ---- the feedback loop ---- *)

type pass_outcome = {
  fitted_prims : string list;
  holdout_pairs : int;
  current_inversions : int;
  candidate_inversions : int;
  current_err : float;
  candidate_err : float;
  accepted : bool;
  version_after : int;
}

let positive_pairs t prim =
  List.filter
    (fun (p, m) -> p > 0. && m > 0.)
    (Obs.Cost_monitor.series_pairs t.monitor prim)

(* Newest-third holdout, bounded so the pooled O(n^2) inversion count stays
   cheap even with full 4096-pair rings. [pairs] is oldest first. *)
let split_holdout pairs =
  let len = List.length pairs in
  let h = Int.max 2 (Int.min 64 (len / 3)) in
  let cut = len - h in
  (List.filteri (fun i _ -> i < cut) pairs,
   List.filteri (fun i _ -> i >= cut) pairs)

let snapshot_of t note =
  { snap_version = t.version;
    snap_note = note;
    snap_corrections =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.corrections []
      |> List.sort compare }

let push_snapshot t note =
  t.history <- snapshot_of t note :: t.history;
  if List.length t.history > history_cap then
    t.history <- List.filteri (fun i _ -> i < history_cap) t.history

let apply_correction corrections prim p =
  match Hashtbl.find_opt corrections prim with
  | None -> p
  | Some (a, b) -> if p > 0. then exp (a +. (b *. log p)) else p

let calibrate_pass t =
  let prims = Obs.Cost_monitor.prims t.monitor in
  let per_prim =
    List.filter_map
      (fun prim ->
        let pairs = positive_pairs t prim in
        if List.length pairs < t.min_pairs then None
        else
          let train, hold = split_holdout pairs in
          if List.length train < 2 then None
          else Some (prim, fit_affine train, hold))
      prims
  in
  if per_prim = [] then None
  else begin
    let fitted = List.map (fun (p, _, _) -> p) per_prim in
    let candidate = Hashtbl.copy t.corrections in
    List.iter (fun (prim, c, _) -> Hashtbl.replace candidate prim c) per_prim;
    (* pooled holdout: (prim, raw predicted, measured) *)
    let pooled =
      List.concat_map
        (fun (prim, _, hold) -> List.map (fun (p, m) -> (prim, p, m)) hold)
        per_prim
    in
    let n = List.length pooled in
    let meas = Array.of_list (List.map (fun (_, _, m) -> m) pooled) in
    let cur =
      Array.of_list
        (List.map (fun (prim, p, _) -> corrected t ~prim p) pooled)
    in
    let cand =
      Array.of_list
        (List.map (fun (prim, p, _) -> apply_correction candidate prim p) pooled)
    in
    let cur_inv, _ = inversions cur meas n in
    let cand_inv, _ = inversions cand meas n in
    let cur_err = mean_abs_log_err cur meas n in
    let cand_err = mean_abs_log_err cand meas n in
    let accepted =
      cand_inv < cur_inv || (cand_inv = cur_inv && cand_err < cur_err -. 1e-12)
    in
    if accepted then begin
      push_snapshot t
        (Printf.sprintf "pre-pass fit of %d primitive(s)"
           (List.length fitted));
      List.iter
        (fun (prim, c, _) -> Hashtbl.replace t.corrections prim c)
        per_prim;
      t.version <- t.version + 1
    end;
    Some
      { fitted_prims = fitted;
        holdout_pairs = n;
        current_inversions = cur_inv;
        candidate_inversions = cand_inv;
        current_err = cur_err;
        candidate_err = cand_err;
        accepted;
        version_after = t.version }
  end

let calibrate t =
  Obs.span t.obs ~cat:"calibrate" "calibrate.pass" @@ fun () ->
  let outcome = calibrate_pass t in
  Obs.count t.obs "calibrate.passes" 1;
  (match outcome with
  | None ->
      Obs.event t.obs Obs.Journal.Calibrate ~tag:"skipped"
        ~v:(float_of_int t.version)
  | Some o ->
      Obs.count t.obs
        (if o.accepted then "calibrate.accepted" else "calibrate.rejected")
        1;
      Obs.gauge t.obs "calibrate.version" (float_of_int t.version);
      Obs.event t.obs Obs.Journal.Calibrate
        ~tag:(if o.accepted then "accepted" else "rejected")
        ~v:(float_of_int o.version_after));
  outcome

let observe t ~prim ~predicted ~measured =
  Obs.Cost_monitor.record t.monitor ~prim ~predicted ~measured;
  t.observed <- t.observed + 1;
  let cadence_due = t.calibration <> Off && t.observed mod t.fit_every = 0 in
  let drift_due =
    match t.drift with
    | Some d when t.calibration <> Off && predicted > 0. && measured > 0. ->
        (* the detector watches the CORRECTED error: once an accepted pass
           fixes the predictions the stream quiets and the detector re-arms
           against the new regime instead of firing forever on the raw
           misprediction *)
        let err = Float.abs (log (corrected t ~prim predicted /. measured)) in
        if Obs.Drift.observe d err then begin
          Obs.count t.obs "calibrate.drift.fired" 1;
          Obs.event t.obs Obs.Journal.Drift
            ~tag:(Obs.Drift.name d ^ ":" ^ prim)
            ~v:(Obs.Drift.last_stat d);
          true
        end
        else false
    | _ -> false
  in
  (* a drift firing triggers an immediate out-of-cadence pass instead of
     waiting for the next fit_every boundary *)
  if cadence_due || drift_due then ignore (calibrate t)

(* ---- snapshots ---- *)

let snapshots t = t.history

let rollback t =
  match t.history with
  | [] -> false
  | snap :: rest ->
      Hashtbl.reset t.corrections;
      List.iter
        (fun (k, v) -> Hashtbl.replace t.corrections k v)
        snap.snap_corrections;
      t.history <- rest;
      (* the version advances: a rolled-back oracle predicts differently
         from the state it replaced, so caches keyed by [name] must miss *)
      t.version <- t.version + 1;
      true

(* ---- reporting ---- *)

type prim_report = {
  rp_prim : string;
  rp_runs : int;
  rp_pairs : int;
  rp_base_err : float;
  rp_corrected_err : float;
  rp_base_inv : int;
  rp_corrected_inv : int;
  rp_inv_pairs : int;
  rp_corrected : bool;
}

type report = {
  per_prim : prim_report list;
  pooled_base_inv : int;
  pooled_corrected_inv : int;
  pooled_pairs : int;
  report_version : int;
}

let report t =
  let prims = Obs.Cost_monitor.prims t.monitor in
  let per_prim =
    List.map
      (fun prim ->
        let pairs = positive_pairs t prim in
        let n = List.length pairs in
        let meas = Array.of_list (List.map snd pairs) in
        let raw = Array.of_list (List.map fst pairs) in
        let corr = Array.map (fun p -> corrected t ~prim p) raw in
        let base_inv, inv_pairs = inversions raw meas n in
        let corr_inv, _ = inversions corr meas n in
        { rp_prim = prim;
          rp_runs = Obs.Cost_monitor.runs t.monitor prim;
          rp_pairs = n;
          rp_base_err = mean_abs_log_err raw meas n;
          rp_corrected_err = mean_abs_log_err corr meas n;
          rp_base_inv = base_inv;
          rp_corrected_inv = corr_inv;
          rp_inv_pairs = inv_pairs;
          rp_corrected = Hashtbl.mem t.corrections prim })
      prims
  in
  let pooled =
    List.concat_map
      (fun prim -> List.map (fun (p, m) -> (prim, p, m)) (positive_pairs t prim))
      prims
  in
  let n = List.length pooled in
  let meas = Array.of_list (List.map (fun (_, _, m) -> m) pooled) in
  let raw = Array.of_list (List.map (fun (_, p, _) -> p) pooled) in
  let corr =
    Array.of_list (List.map (fun (prim, p, _) -> corrected t ~prim p) pooled)
  in
  let pooled_base_inv, _ = inversions raw meas n in
  let pooled_corrected_inv, _ = inversions corr meas n in
  { per_prim;
    pooled_base_inv;
    pooled_corrected_inv;
    pooled_pairs = n;
    report_version = t.version }

let pp_report ppf (r : report) =
  Format.fprintf ppf "calibration v%d@\n" r.report_version;
  Format.fprintf ppf "%-18s %6s %6s %10s %10s %13s %6s %5s@\n" "primitive"
    "runs" "pairs" "base|lnE|" "corr|lnE|" "b.inv/pairs" "c.inv" "fit";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-18s %6d %6d %10.4f %10.4f %13s %6d %5s@\n"
        p.rp_prim p.rp_runs p.rp_pairs p.rp_base_err p.rp_corrected_err
        (Printf.sprintf "%d/%d" p.rp_base_inv p.rp_inv_pairs)
        p.rp_corrected_inv
        (if p.rp_corrected then "yes" else "no"))
    r.per_prim;
  Format.fprintf ppf "pooled: %d pairs, inversions %d -> %d@\n" r.pooled_pairs
    r.pooled_base_inv r.pooled_corrected_inv
