module K = Granii_hw.Kernel_model
module Hw = Granii_hw.Hw_profile
module Gbrt = Granii_ml.Gbrt

type t = Cost_model.t

let of_model base = base
let analytic profile = of_model (Cost_model.analytic profile)
let flops_only () = of_model Cost_model.flops_only
let load path = of_model (Cost_model.load path)

let profile t = Cost_model.profile t
let name t = Cost_model.name t

(* ---- prediction ---- *)

let analytic_prim ~threads profile ~env prim =
  List.fold_left
    (fun acc kernel -> acc +. K.time ~threads profile kernel)
    0.
    (Primitive.to_kernels env prim)

let predict t feats ~env prim =
  let threads = feats.Featurizer.threads in
  match Cost_model.kind t with
  | `Flops ->
      List.fold_left
        (fun acc kernel -> acc +. K.flops kernel)
        0.
        (Primitive.to_kernels env prim)
  | `Analytic ->
      let p = Option.get (Cost_model.profile t) in
      analytic_prim ~threads p ~env prim
  | `Learned -> (
      let p = Option.get (Cost_model.profile t) in
      match Cost_model.find_model t (Primitive.name prim) with
      | Some model ->
          exp
            (Gbrt.predict model
               (Featurizer.primitive_input feats
                  ~dims:(Primitive.instantiated_dims env prim)))
      | None -> analytic_prim ~threads p ~env prim)

let predict_plan t feats ~env ~iterations (plan : Plan.t) =
  List.fold_left
    (fun acc (s : Plan.step) ->
      let c = predict t feats ~env s.Plan.prim in
      match s.Plan.phase with
      | Plan.Setup -> acc +. c
      | Plan.Per_iteration -> acc +. (float_of_int iterations *. c))
    0. plan.Plan.steps

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
