type t = {
  base : float;
  learning_rate : float;
  trees : Regression_tree.t array;
  n_features : int;
}

type params = {
  n_trees : int;
  learning_rate : float;
  tree_params : Regression_tree.params;
  subsample : float;
  seed : int;
}

let default_params =
  { n_trees = 120;
    learning_rate = 0.1;
    tree_params = Regression_tree.default_params;
    subsample = 0.8;
    seed = 0 }

let fit ?(params = default_params) (ds : Ml_dataset.t) =
  let n = Ml_dataset.n_samples ds in
  let base = Granii_tensor.Vector.mean ds.Ml_dataset.labels in
  let current = Array.make n base in
  let rng = Granii_tensor.Prng.create (params.seed + 7919) in
  let trees =
    Array.init params.n_trees (fun _ ->
        let residuals =
          Array.init n (fun i -> ds.Ml_dataset.labels.(i) -. current.(i))
        in
        let residual_ds =
          Ml_dataset.make (Array.map Array.copy ds.Ml_dataset.features) residuals
        in
        let tree =
          if params.subsample >= 1. then
            Regression_tree.fit ~params:params.tree_params residual_ds
          else begin
            let k =
              Stdlib.max 2 (int_of_float (float_of_int n *. params.subsample))
            in
            let rows = Granii_tensor.Prng.sample_without_replacement rng k n in
            Regression_tree.fit ~params:params.tree_params
              (Ml_dataset.subset residual_ds rows)
          end
        in
        for i = 0 to n - 1 do
          current.(i) <-
            current.(i)
            +. (params.learning_rate
               *. Regression_tree.predict tree ds.Ml_dataset.features.(i))
        done;
        tree)
  in
  { base;
    learning_rate = params.learning_rate;
    trees;
    n_features = ds.Ml_dataset.n_features }

let predict (model : t) x =
  Array.fold_left
    (fun acc tree -> acc +. (model.learning_rate *. Regression_tree.predict tree x))
    model.base model.trees

let predict_many model xs = Array.map (predict model) xs

let n_trees model = Array.length model.trees

let n_features model = model.n_features

let feature_importance model =
  let acc = Array.make model.n_features 0. in
  Array.iter
    (fun tree ->
      let fi = Regression_tree.feature_importance tree model.n_features in
      Array.iteri (fun i g -> acc.(i) <- acc.(i) +. g) fi)
    model.trees;
  acc

let to_sexp (model : t) =
  Sexp_lite.List
    (Sexp_lite.Atom "gbrt"
    :: Sexp_lite.of_float model.base
    :: Sexp_lite.of_float model.learning_rate
    :: Sexp_lite.of_int model.n_features
    :: Array.to_list (Array.map Regression_tree.to_sexp model.trees))

let of_sexp v =
  match Sexp_lite.tagged "gbrt" v with
  | base :: learning_rate :: n_features :: trees ->
      { base = Sexp_lite.float_atom base;
        learning_rate = Sexp_lite.float_atom learning_rate;
        n_features = Sexp_lite.int_atom n_features;
        trees = Array.of_list (List.map Regression_tree.of_sexp trees) }
  | [] | [ _ ] | [ _; _ ] ->
      raise (Sexp_lite.Parse_error "malformed gbrt encoding")
