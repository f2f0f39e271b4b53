(* The cost-oracle calibration loop: the A/B guard accepts only candidates
   that strictly improve the pooled ranking, Off is bitwise inert, accepted
   passes are versioned and rollback-able, and the startup micro-probe
   re-anchors profiles inside its budget and clamp ranges. *)

open Granii_core
open Test_util
module Hw = Granii_hw
module G = Granii_graph

let approx_rel ?(tol = 1e-6) a b =
  Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* Two primitives whose raw predictions interleave while their measured
   times are scaled apart: the pooled ranking is wrong until per-primitive
   corrections pull each scale back. Exact log-affine relations, so the fit
   recovers them and the holdout slice is predicted perfectly. *)
let feed_crossed oracle =
  for i = 1 to 12 do
    let p = float_of_int i *. 1e-3 in
    Cost_oracle.observe oracle ~prim:"spmm" ~predicted:p
      ~measured:(20. *. p)
  done;
  for i = 1 to 12 do
    let p = (float_of_int i +. 0.5) *. 1e-3 in
    Cost_oracle.observe oracle ~prim:"gemm" ~predicted:p
      ~measured:(0.01 *. p)
  done

let test_guard_accepts_improvement () =
  let oracle =
    Cost_oracle.of_model ~calibration:Cost_oracle.Affine ~fit_every:1000
      (Cost_model.analytic Hw.Hw_profile.cpu)
  in
  check_true "pristine oracle has the base name"
    (Cost_oracle.name oracle = (Cost_oracle.base oracle |> Cost_model.name));
  feed_crossed oracle;
  check_true "observations counted" (Cost_oracle.observed oracle = 24);
  match Cost_oracle.calibrate oracle with
  | None -> Alcotest.fail "calibration pass found no primitive to fit"
  | Some o ->
      check_true "both primitives participated"
        (List.sort compare o.Cost_oracle.fitted_prims = [ "gemm"; "spmm" ]);
      check_true "the mis-anchored ranking had pooled inversions"
        (o.Cost_oracle.current_inversions > 0);
      check_true "the candidate strictly reduced them"
        (o.Cost_oracle.candidate_inversions < o.Cost_oracle.current_inversions);
      check_true "the guard accepted" o.Cost_oracle.accepted;
      check_true "version advanced" (Cost_oracle.version oracle = 1);
      check_true "name is version-suffixed (plan caches must miss)"
        (Cost_oracle.name oracle
        = (Cost_oracle.base oracle |> Cost_model.name) ^ "#v1");
      (match Cost_oracle.correction oracle "spmm" with
      | None -> Alcotest.fail "no correction installed for spmm"
      | Some _ -> ());
      check_true "the correction recovers the true scale"
        (approx_rel (Cost_oracle.corrected oracle ~prim:"spmm" 1e-3) 0.02);
      check_true "the other primitive's scale too"
        (approx_rel (Cost_oracle.corrected oracle ~prim:"gemm" 2e-3) 2e-5);
      let r = Cost_oracle.report oracle in
      check_true "the report shows the pooled ranking repaired"
        (r.Cost_oracle.pooled_corrected_inv < r.Cost_oracle.pooled_base_inv);
      check_true "report version matches"
        (r.Cost_oracle.report_version = 1)

let test_guard_rejects_no_improvement () =
  (* a base model that is already perfect: the affine candidate cannot
     strictly beat zero inversions / zero error, so the guard must hold the
     current model *)
  let oracle =
    Cost_oracle.of_model ~calibration:Cost_oracle.Affine ~fit_every:1000
      (Cost_model.analytic Hw.Hw_profile.cpu)
  in
  for i = 1 to 12 do
    let p = float_of_int i *. 1e-3 in
    Cost_oracle.observe oracle ~prim:"spmm" ~predicted:p ~measured:p
  done;
  (match Cost_oracle.calibrate oracle with
  | None -> Alcotest.fail "calibration pass found no primitive to fit"
  | Some o ->
      check_true "a perfect model leaves nothing to win"
        (not o.Cost_oracle.accepted));
  check_true "version unchanged" (Cost_oracle.version oracle = 0);
  check_true "no correction installed"
    (Cost_oracle.correction oracle "spmm" = None);
  check_true "name unchanged"
    (Cost_oracle.name oracle = (Cost_oracle.base oracle |> Cost_model.name));
  check_true "predictions untouched"
    (Cost_oracle.corrected oracle ~prim:"spmm" 5e-3 = 5e-3)

let test_off_is_inert () =
  (* with calibration Off the oracle is a pure reader of its base model:
     observations accumulate in the monitor but never change a prediction *)
  let graph = G.Generators.erdos_renyi ~seed:3 ~n:40 ~avg_degree:4. () in
  let feats = Featurizer.extract ~threads:1 graph in
  let env =
    { Dim.n = G.Graph.n_nodes graph;
      nnz = G.Graph.n_edges graph + G.Graph.n_nodes graph;
      k_in = 16;
      k_out = 8 }
  in
  let prims =
    [ Primitive.Spmm { k = Dim.Kin; weighted = true };
      Primitive.Row_broadcast { k = Dim.Kin };
      Primitive.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.Kout } ]
  in
  let fresh = Cost_oracle.analytic Hw.Hw_profile.cpu in
  let oracle =
    (* fit_every 8: were Off not gating the loop, the pass would fire *)
    Cost_oracle.of_model ~fit_every:8 (Cost_model.analytic Hw.Hw_profile.cpu)
  in
  check_true "of_model defaults to Off"
    (Cost_oracle.calibration oracle = Cost_oracle.Off);
  feed_crossed oracle;
  check_true "no pass auto-fired" (Cost_oracle.version oracle = 0);
  check_true "no correction exists"
    (Cost_oracle.correction oracle "spmm" = None);
  List.iter
    (fun p ->
      let a = Cost_oracle.predict oracle feats ~env p in
      let b = Cost_oracle.predict fresh feats ~env p in
      check_true
        (Primitive.name p ^ ": Off prediction bitwise equals the base model")
        (Int64.bits_of_float a = Int64.bits_of_float b))
    prims

let test_rollback () =
  let oracle =
    Cost_oracle.of_model ~calibration:Cost_oracle.Affine ~fit_every:1000
      (Cost_model.analytic Hw.Hw_profile.cpu)
  in
  feed_crossed oracle;
  (match Cost_oracle.calibrate oracle with
  | Some o when o.Cost_oracle.accepted -> ()
  | _ -> Alcotest.fail "setup: the crossed feed must be accepted");
  check_true "one snapshot pushed"
    (List.length (Cost_oracle.snapshots oracle) = 1);
  check_true "the snapshot captured the pre-swap (pristine) state"
    ((List.hd (Cost_oracle.snapshots oracle)).Cost_oracle.snap_corrections
    = []);
  check_true "rollback restores it" (Cost_oracle.rollback oracle);
  check_true "corrections gone"
    (Cost_oracle.correction oracle "spmm" = None);
  check_true "version still advances (caches must not confuse states)"
    (Cost_oracle.version oracle = 2);
  check_true "no second snapshot to restore"
    (not (Cost_oracle.rollback oracle))

let test_construction_validation () =
  let base = Cost_model.analytic Hw.Hw_profile.cpu in
  List.iter
    (fun fit_every ->
      check_true
        (Printf.sprintf "fit_every=%d rejected" fit_every)
        (match Cost_oracle.of_model ~fit_every base with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ 0; -3 ];
  check_true "min_pairs < 4 rejected"
    (match Cost_oracle.of_model ~min_pairs:3 base with
    | exception Invalid_argument _ -> true
    | _ -> false);
  List.iter
    (fun (s, expect) ->
      check_true
        (Printf.sprintf "calibration_of_string %S" s)
        (Cost_oracle.calibration_of_string s = expect))
    [ ("off", Some Cost_oracle.Off);
      ("affine", Some Cost_oracle.Affine);
      ("refit", None);
      ("sometimes", None) ];
  List.iter
    (fun c ->
      check_true "calibration strings round-trip"
        (Cost_oracle.calibration_of_string
           (Cost_oracle.calibration_to_string c)
        = Some c))
    [ Cost_oracle.Off; Cost_oracle.Affine ]

let test_micro_probe () =
  check_true "non-positive budget rejected"
    (match Hw.Calibrate.measure ~budget_s:0. () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let m = Hw.Calibrate.measure ~budget_s:0.02 () in
  List.iter
    (fun (label, v) ->
      check_true (label ^ " is positive and finite")
        (Float.is_finite v && v > 0.))
    [ ("dense_gflops", m.Hw.Calibrate.dense_gflops);
      ("sparse_gflops", m.Hw.Calibrate.sparse_gflops);
      ("stream_gbps", m.Hw.Calibrate.stream_gbps);
      ("random_gbps", m.Hw.Calibrate.random_gbps) ];
  (* bounded: four probes in a 20 ms budget may overshoot by one repetition
     each, but never run away *)
  check_true "the pass is bounded"
    (m.Hw.Calibrate.elapsed_s >= 0. && m.Hw.Calibrate.elapsed_s < 5.);
  let base = Hw.Hw_profile.cpu in
  let p = Hw.Calibrate.reanchor ~base m in
  check_true "re-anchored profile is host-suffixed"
    (p.Hw.Hw_profile.name = base.Hw.Hw_profile.name ^ "-host");
  check_true "core count preserved"
    (p.Hw.Hw_profile.cores = base.Hw.Hw_profile.cores);
  check_true "dense rate clamped into range"
    (p.Hw.Hw_profile.dense_gflops >= 1.
    && p.Hw.Hw_profile.dense_gflops <= 1e5);
  check_true "sparse rate clamped into range"
    (p.Hw.Hw_profile.sparse_gflops >= 0.1
    && p.Hw.Hw_profile.sparse_gflops <= 1e4);
  check_true "stream bandwidth clamped into range"
    (p.Hw.Hw_profile.stream_gbps >= 1. && p.Hw.Hw_profile.stream_gbps <= 1e4);
  check_true "random bandwidth clamped into range"
    (p.Hw.Hw_profile.random_gbps >= 0.05
    && p.Hw.Hw_profile.random_gbps <= 1e3);
  (* the re-anchored profile drives the analytic model like any other *)
  let t =
    Cost_oracle.kernel_time p
      (Hw.Kernel_model.Elementwise { n = 1000; k = 8; flops_per_elt = 2. })
  in
  check_true "re-anchored profile prices kernels"
    (Float.is_finite t && t > 0.)

let suite =
  [ Alcotest.test_case "A/B guard accepts a strict ranking improvement"
      `Quick test_guard_accepts_improvement;
    Alcotest.test_case "A/B guard rejects a non-improvement" `Quick
      test_guard_rejects_no_improvement;
    Alcotest.test_case "calibration Off is bitwise inert" `Quick
      test_off_is_inert;
    Alcotest.test_case "rollback restores the pre-swap state" `Quick
      test_rollback;
    Alcotest.test_case "construction and policy-string validation" `Quick
      test_construction_validation;
    Alcotest.test_case "micro-probe is bounded and clamped" `Quick
      test_micro_probe ]
