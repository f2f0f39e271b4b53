type t =
  | Learned of {
      profile : Granii_hw.Hw_profile.t;
      table : (string, Granii_ml.Gbrt.t) Hashtbl.t;
    }
  | Analytic of Granii_hw.Hw_profile.t
  | Flops

let train ?gbrt_params ~profile datasets =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, ds) ->
      let params =
        match gbrt_params with
        | Some p -> p
        | None -> Granii_ml.Gbrt.default_params
      in
      Hashtbl.replace table name (Granii_ml.Gbrt.fit ~params ds))
    datasets;
  Learned { profile; table }

let analytic profile = Analytic profile

let flops_only = Flops

let kind = function
  | Learned _ -> `Learned
  | Analytic _ -> `Analytic
  | Flops -> `Flops

let find_model t prim_name =
  match t with
  | Learned { table; _ } -> Hashtbl.find_opt table prim_name
  | Analytic _ | Flops -> None

let name = function
  | Learned { profile; _ } -> "learned-" ^ profile.Granii_hw.Hw_profile.name
  | Analytic profile -> "analytic-" ^ profile.Granii_hw.Hw_profile.name
  | Flops -> "flops"

let profile = function
  | Learned { profile; _ } | Analytic profile -> Some profile
  | Flops -> None

module Sexp = Granii_ml.Sexp_lite

let save t path =
  match t with
  | Analytic _ | Flops ->
      invalid_arg "Cost_model.save: only learned models carry state"
  | Learned { profile; table } ->
      let entries =
        Hashtbl.fold
          (fun prim_name model acc ->
            Sexp.List [ Sexp.Atom prim_name; Granii_ml.Gbrt.to_sexp model ] :: acc)
          table []
      in
      let doc =
        Sexp.List
          (Sexp.Atom "cost_model"
          :: Sexp.Atom profile.Granii_hw.Hw_profile.name
          :: List.sort compare entries)
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Sexp.to_string doc))

let load path =
  let ic = open_in path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Sexp.tagged "cost_model" (Sexp.of_string content) with
  | profile_name :: entries ->
      let profile = Granii_hw.Hw_profile.find (Sexp.atom profile_name) in
      let table = Hashtbl.create 16 in
      List.iter
        (fun entry ->
          match Sexp.list entry with
          | [ Sexp.Atom prim_name; model ] ->
              let model = Granii_ml.Gbrt.of_sexp model in
              (* a model trained on another feature layout would read the
                 wrong columns or index past the input vector *)
              let width = Granii_ml.Gbrt.n_features model in
              if width <> Featurizer.n_inputs then
                raise
                  (Sexp.Parse_error
                     (Printf.sprintf
                        "cost model for %s was trained on %d features, the \
                         featurizer produces %d"
                        prim_name width Featurizer.n_inputs));
              Hashtbl.replace table prim_name model
          | _ -> raise (Sexp.Parse_error "malformed cost-model entry"))
        entries;
      Learned { profile; table }
  | [] -> raise (Sexp.Parse_error "empty cost-model file")

let models = function
  | Learned { table; _ } -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  | Analytic _ | Flops -> []
