module K = Granii_hw.Kernel_model
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

let kernel_time ?threads profile kernel = K.time ?threads profile kernel
