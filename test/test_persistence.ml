open Granii_ml
open Granii_core
open Test_util
module Sexp = Sexp_lite

let test_sexp_roundtrip () =
  let v =
    Sexp.List
      [ Sexp.Atom "a";
        Sexp.List [ Sexp.Atom "b"; Sexp.Atom "1.5" ];
        Sexp.Atom "c" ]
  in
  let s = Sexp.to_string v in
  Alcotest.(check string) "rendering" "(a (b 1.5) c)" s;
  check_true "roundtrip" (Sexp.of_string s = v)

let test_sexp_comments_and_whitespace () =
  let v = Sexp.of_string "  ( x ; a comment\n  ( y ) )  " in
  check_true "comments stripped" (v = Sexp.List [ Sexp.Atom "x"; Sexp.List [ Sexp.Atom "y" ] ])

let test_sexp_errors () =
  let fails s =
    try
      ignore (Sexp.of_string s);
      false
    with Sexp.Parse_error _ -> true
  in
  check_true "unclosed paren" (fails "(a (b)");
  check_true "stray close" (fails ")");
  check_true "trailing garbage" (fails "(a) b");
  check_true "empty input" (fails "   ");
  check_true "typed accessor on wrong shape"
    (try ignore (Sexp.int_atom (Sexp.Atom "xyz")); false
     with Sexp.Parse_error _ -> true)

let test_float_precision () =
  List.iter
    (fun x ->
      check_float "float atom roundtrips exactly" x
        (Sexp.float_atom (Sexp.of_float x)))
    [ 0.1; -1e-300; 3.141592653589793; 1e18; -0.; 42. ]

let fitted_gbrt =
  lazy
    (let rng = Granii_tensor.Prng.create 5 in
     let features =
       Array.init 200 (fun _ ->
           [| Granii_tensor.Prng.uniform rng 0. 1.;
              Granii_tensor.Prng.uniform rng 0. 1. |])
     in
     let labels = Array.map (fun x -> (2. *. x.(0)) -. x.(1)) features in
     (Gbrt.fit (Ml_dataset.make features labels), features))

let test_gbrt_roundtrip () =
  let model, features = Lazy.force fitted_gbrt in
  let encoded = Sexp.to_string (Gbrt.to_sexp model) in
  let decoded = Gbrt.of_sexp (Sexp.of_string encoded) in
  Array.iter
    (fun x -> check_float "same predictions" (Gbrt.predict model x) (Gbrt.predict decoded x))
    features

let test_tree_roundtrip =
  qtest ~count:20 "regression trees roundtrip through sexp"
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = Granii_tensor.Prng.create seed in
      let features = Array.init 40 (fun _ -> [| Granii_tensor.Prng.uniform rng 0. 1. |]) in
      let labels = Array.map (fun x -> x.(0) *. x.(0)) features in
      let tree = Regression_tree.fit (Ml_dataset.make features labels) in
      let decoded = Regression_tree.of_sexp (Regression_tree.to_sexp tree) in
      Array.for_all
        (fun x -> Regression_tree.predict tree x = Regression_tree.predict decoded x)
        features)

let small_graphs =
  lazy
    [ Granii_graph.Generators.erdos_renyi ~seed:3 ~n:128 ~avg_degree:6. ();
      Granii_graph.Generators.grid2d ~seed:4 ~rows:12 ~cols:12 () ]

let test_cost_model_save_load () =
  let profile = Granii_hw.Hw_profile.h100 in
  let data =
    Profiling.collect ~profile ~graphs:(Lazy.force small_graphs) ~sizes:[ 16; 64 ] ()
  in
  let gbrt_params = { Gbrt.default_params with Gbrt.n_trees = 15 } in
  let cm = Cost_model.train ~gbrt_params ~profile data in
  let path = Filename.temp_file "granii" ".gcm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cost_model.save cm path;
      let loaded = Cost_model.load path in
      check_true "profile preserved"
        (String.equal (Cost_model.name loaded) (Cost_model.name cm));
      let g = List.hd (Lazy.force small_graphs) in
      let feats = Featurizer.extract g in
      let env = { Dim.n = 128; nnz = 800; k_in = 32; k_out = 16 } in
      List.iter
        (fun prim ->
          check_float "same predictions after reload"
            (Cost_oracle.predict (Cost_oracle.of_model cm) feats ~env prim)
            (Cost_oracle.predict (Cost_oracle.of_model loaded) feats ~env prim))
        [ Primitive.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.Kout };
          Primitive.Spmm { k = Dim.Kin; weighted = false };
          Primitive.Sddmm_rank1 ])

let test_save_rejects_ablations () =
  check_true "analytic model has no state to save"
    (try
       Cost_model.save (Cost_model.analytic Granii_hw.Hw_profile.cpu) "/tmp/x";
       false
     with Invalid_argument _ -> true)

let test_load_rejects_garbage () =
  let path = Filename.temp_file "granii" ".gcm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "(not_a_cost_model)";
      close_out oc;
      check_true "parse error surfaced"
        (try ignore (Cost_model.load path); false
         with Sexp.Parse_error _ -> true))

let test_load_rejects_stale_width () =
  (* a model saved by a build whose featurizer had another width must be
     refused, not read with shifted or out-of-range features *)
  let width = Featurizer.n_inputs + 2 in
  let rng = Granii_tensor.Prng.create 17 in
  let features =
    Array.init 30 (fun _ ->
        Array.init width (fun _ -> Granii_tensor.Prng.uniform rng 0. 1.))
  in
  let labels = Array.map (fun x -> x.(0)) features in
  let gbrt_params = { Gbrt.default_params with Gbrt.n_trees = 3 } in
  let cm =
    Cost_model.train ~gbrt_params ~profile:Granii_hw.Hw_profile.cpu
      [ ("gemm", Ml_dataset.make features labels) ]
  in
  let path = Filename.temp_file "granii" ".gcm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cost_model.save cm path;
      match Cost_model.load path with
      | _ -> Alcotest.fail "a model of the wrong feature width was loaded"
      | exception Sexp.Parse_error msg ->
          check_true ("the error names both widths: " ^ msg)
            (contains msg (string_of_int width)
            && contains msg (string_of_int Featurizer.n_inputs)))

let test_collect_measured () =
  let data =
    Profiling.collect_measured
      ~graphs:[ Granii_graph.Generators.erdos_renyi ~seed:8 ~n:96 ~avg_degree:5. () ]
      ~sizes:[ 4; 8 ] ~runs:1 ()
  in
  check_true "all primitives measured" (List.length data >= 14);
  List.iter
    (fun (_, ds) ->
      check_true "log-labels finite"
        (Array.for_all Float.is_finite ds.Ml_dataset.labels))
    data;
  (* a model trained on measured data predicts a positive time *)
  let gbrt_params = { Gbrt.default_params with Gbrt.n_trees = 10 } in
  let cm = Cost_model.train ~gbrt_params ~profile:Granii_hw.Hw_profile.cpu data in
  let g = List.hd (Lazy.force small_graphs) in
  let feats = Featurizer.extract g in
  let env = { Dim.n = 128; nnz = 800; k_in = 8; k_out = 8 } in
  check_true "positive predicted runtime"
    (Cost_oracle.predict (Cost_oracle.of_model cm) feats ~env
       (Primitive.Spmm { k = Dim.Kin; weighted = false })
    > 0.)

let suite =
  [ Alcotest.test_case "sexp roundtrip" `Quick test_sexp_roundtrip;
    Alcotest.test_case "sexp comments" `Quick test_sexp_comments_and_whitespace;
    Alcotest.test_case "sexp errors" `Quick test_sexp_errors;
    Alcotest.test_case "float precision" `Quick test_float_precision;
    Alcotest.test_case "gbrt roundtrip" `Quick test_gbrt_roundtrip;
    test_tree_roundtrip;
    Alcotest.test_case "cost model save/load" `Quick test_cost_model_save_load;
    Alcotest.test_case "save rejects ablations" `Quick test_save_rejects_ablations;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
    Alcotest.test_case "load rejects a stale feature width" `Quick
      test_load_rejects_stale_width;
    Alcotest.test_case "measured profiling" `Quick test_collect_measured ]
