(* Shared helpers for the test suite. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_true msg b = Alcotest.(check bool) msg true b
let check_int = Alcotest.(check int)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.equal (String.sub haystack i nn) needle || scan (i + 1)) in
  nn = 0 || scan 0

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* A small random CSR matrix generator for property tests: dimensions up to
   12x12, density ~0.3, values in [-2, 2]. *)
let csr_gen =
  let open QCheck2.Gen in
  let* rows = int_range 1 12 in
  let* cols = int_range 1 12 in
  let* density = float_range 0.05 0.5 in
  let* seed = int_range 0 10_000 in
  let rng = Granii_tensor.Prng.create seed in
  let entries = ref [] in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Granii_tensor.Prng.bool rng density then
        entries := (i, j, Granii_tensor.Prng.uniform rng (-2.) 2.) :: !entries
    done
  done;
  return
    (Granii_sparse.Csr.of_coo
       (Granii_sparse.Coo.make ~n_rows:rows ~n_cols:cols (Array.of_list !entries)))

let dense_gen ~rows ~cols =
  let open QCheck2.Gen in
  let* seed = int_range 0 10_000 in
  return (Granii_tensor.Dense.random ~seed ~scale:2. rows cols)

(* Random small connected-ish graph. *)
let graph_gen =
  let open QCheck2.Gen in
  let* n = int_range 4 40 in
  let* avg = float_range 1.5 6. in
  let* seed = int_range 0 10_000 in
  return (Granii_graph.Generators.erdos_renyi ~seed ~n ~avg_degree:avg ())

(* Degenerate sparse matrices every format and kernel must handle exactly:
   empty, 1x1, one dense row, isolated vertices, and duplicate-heavy rows. *)
let degenerates =
  let mk n_rows n_cols entries =
    Granii_sparse.Csr.of_coo
      (Granii_sparse.Coo.make ~n_rows ~n_cols (Array.of_list entries))
  in
  [ ("empty 6x6", mk 6 6 []);
    ("1x1 empty", mk 1 1 []);
    ("1x1 entry", mk 1 1 [ (0, 0, 1.5) ]);
    ( "single dense row",
      mk 7 7 (List.init 7 (fun j -> (2, j, float_of_int (j + 1)))) );
    ("isolated vertices", mk 9 9 [ (3, 2, -1.25); (7, 7, 0.5) ]);
    ( "duplicate-heavy rows",
      (* four identical rows, one superset row, one empty row *)
      mk 6 6
        (List.concat_map
           (fun i -> [ (i, 1, 2.0); (i, 4, -3.0) ])
           [ 0; 1; 2; 3 ]
        @ [ (4, 1, 2.0); (4, 4, -3.0); (4, 5, 1.0) ]) ) ]
