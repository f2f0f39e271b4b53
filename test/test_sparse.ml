open Granii_sparse
open Granii_tensor
open Test_util

let small_csr () =
  Csr.of_coo
    (Coo.make ~n_rows:3 ~n_cols:3 [| (0, 1, 2.); (1, 0, 3.); (1, 2, 1.); (2, 2, 5.) |])

let test_coo_dedup () =
  let coo = Coo.make ~n_rows:2 ~n_cols:2 [| (0, 0, 1.); (0, 0, 2.); (1, 1, 3.) |] in
  check_int "duplicates summed" 2 (Coo.nnz coo);
  let d = Coo.to_dense coo in
  check_float "summed value" 3. (Granii_tensor.Dense.get d 0 0)

let test_coo_bounds () =
  Alcotest.check_raises "out of bounds rejected"
    (Invalid_argument "Coo.make: entry (2, 0) out of bounds for 2x2") (fun () ->
      ignore (Coo.make ~n_rows:2 ~n_cols:2 [| (2, 0, 1.) |]))

let test_coo_symmetrize () =
  let coo = Coo.make ~n_rows:3 ~n_cols:3 [| (0, 1, 4.); (2, 2, 1.) |] in
  let s = Coo.symmetrize coo in
  check_int "adds reverse edge" 3 (Coo.nnz s);
  let d = Coo.to_dense s in
  check_float "reverse value" 4. (Granii_tensor.Dense.get d 1 0);
  let s2 = Coo.symmetrize s in
  check_int "symmetrize is idempotent" (Coo.nnz s) (Coo.nnz s2)

let test_csr_structure () =
  let m = small_csr () in
  check_int "nnz" 4 (Csr.nnz m);
  check_float "get stored" 3. (Csr.get m 1 0);
  check_float "get missing" 0. (Csr.get m 0 0);
  Alcotest.(check (array int)) "row degrees" [| 1; 2; 1 |] (Csr.row_degrees m);
  Alcotest.(check (array int)) "col degrees" [| 1; 1; 2 |] (Csr.col_degrees m)

let test_csr_transpose_involution =
  qtest "transpose . transpose = id" csr_gen (fun m ->
      Csr.equal_approx m (Csr.transpose (Csr.transpose m)))

let test_csr_transpose_dense =
  qtest "transpose agrees with dense transpose" csr_gen (fun m ->
      Granii_tensor.Dense.equal_approx
        (Csr.to_dense (Csr.transpose m))
        (Granii_tensor.Dense.transpose (Csr.to_dense m)))

let test_csr_of_dense_roundtrip =
  qtest "of_dense . to_dense = id" csr_gen (fun m ->
      Csr.equal_approx m (Csr.of_dense (Csr.to_dense m)))

let test_csr_unweighted () =
  let m = Csr.drop_values (small_csr ()) in
  check_true "unweighted" (not (Csr.is_weighted m));
  check_float "values read as 1" 1. (Csr.value m 0);
  check_float "get missing still 0" 0. (Csr.get m 0 0)

let test_csr_validation () =
  Alcotest.check_raises "row_ptr must be monotone"
    (Invalid_argument "Csr.make: row_ptr must be monotone") (fun () ->
      ignore
        (Csr.make ~n_rows:2 ~n_cols:2 ~row_ptr:[| 0; 2; 1 |] ~col_idx:[| 0 |]
           ~values:None))

let test_spmm_reference =
  qtest ~count:200 "SpMM agrees with dense reference" csr_gen (fun m ->
      let k = 5 in
      let b = Granii_tensor.Dense.random ~seed:(Csr.nnz m) m.Csr.n_cols k in
      let via_sparse = Spmm.run m b in
      let via_dense = Granii_tensor.Dense.matmul (Csr.to_dense m) b in
      Granii_tensor.Dense.equal_approx ~eps:1e-9 via_sparse via_dense)

let test_spmm_unweighted_reference =
  qtest "unweighted SpMM treats entries as 1" csr_gen (fun m ->
      let m = Csr.drop_values m in
      let b = Granii_tensor.Dense.random ~seed:1 m.Csr.n_cols 3 in
      Granii_tensor.Dense.equal_approx (Spmm.run m b)
        (Granii_tensor.Dense.matmul (Csr.to_dense m) b))

let test_spmm_transposed_reference =
  qtest "dense-times-sparse agrees with dense reference" csr_gen (fun m ->
      let b = Granii_tensor.Dense.random ~seed:2 4 m.Csr.n_rows in
      Granii_tensor.Dense.equal_approx (Spmm.run_transposed b m)
        (Granii_tensor.Dense.matmul b (Csr.to_dense m)))

let test_spmm_semiring_max_plus () =
  (* adjacency of a path 0 -> 1 with weight 2; max_plus SpMM on a vector of
     node potentials computes the best relaxed distance *)
  let m = Csr.of_coo (Coo.make ~n_rows:2 ~n_cols:2 [| (0, 1, 2.) |]) in
  let b = Granii_tensor.Dense.of_arrays [| [| 0. |]; [| 10. |] |] in
  let r = Spmm.run ~semiring:Semiring.max_plus m b in
  check_float "max_plus aggregation" 12. (Granii_tensor.Dense.get r 0 0);
  check_float "empty row gives semiring zero" neg_infinity (Granii_tensor.Dense.get r 1 0)

let test_spmv () =
  let m = small_csr () in
  let v = Spmm.spmv m [| 1.; 1.; 1. |] in
  check_float "row 1 sum" 4. v.(1)

let test_sddmm_reference =
  qtest ~count:200 "SDDMM agrees with masked dense product" csr_gen (fun mask ->
      let k = 4 in
      let a = Granii_tensor.Dense.random ~seed:3 mask.Csr.n_rows k in
      let b = Granii_tensor.Dense.random ~seed:4 k mask.Csr.n_cols in
      let r = Sddmm.run mask a b in
      let full = Granii_tensor.Dense.matmul a b in
      let ok = ref true in
      Csr.iter
        (fun i j v ->
          let expected = Csr.get mask i j *. Granii_tensor.Dense.get full i j in
          if Float.abs (v -. expected) > 1e-9 then ok := false)
        r;
      !ok && Csr.equal_structure r mask)

let test_sddmm_rank1_matches_general =
  qtest "rank-1 SDDMM = general SDDMM with vector operands" csr_gen (fun mask ->
      let n = mask.Csr.n_rows and c = mask.Csr.n_cols in
      let dl = Array.init n (fun i -> float_of_int (i + 1)) in
      let dr = Array.init c (fun j -> 1. /. float_of_int (j + 1)) in
      let a = Granii_tensor.Dense.init n 1 (fun i _ -> dl.(i)) in
      let b = Granii_tensor.Dense.init 1 c (fun _ j -> dr.(j)) in
      Csr.equal_approx (Sddmm.rank1 mask dl dr) (Sddmm.run mask a b))

let test_dot_rows_matches_run =
  qtest "dot_rows = run with transposed second operand" csr_gen (fun mask ->
      let k = 3 in
      let x = Granii_tensor.Dense.random ~seed:5 mask.Csr.n_rows k in
      let y = Granii_tensor.Dense.random ~seed:6 mask.Csr.n_cols k in
      Csr.equal_approx (Sddmm.dot_rows mask x y)
        (Sddmm.run mask x (Granii_tensor.Dense.transpose y)))

let test_scale_rows_cols =
  qtest "bilateral scaling = rows then cols" csr_gen (fun m ->
      let dl = Array.init m.Csr.n_rows (fun i -> float_of_int i +. 0.5) in
      let dr = Array.init m.Csr.n_cols (fun j -> 2. -. (0.1 *. float_of_int j)) in
      Csr.equal_approx
        (Sparse_ops.scale_bilateral dl m dr)
        (Sparse_ops.scale_cols (Sparse_ops.scale_rows dl m) dr))

let test_sparse_add () =
  let a = Csr.of_coo (Coo.make ~n_rows:2 ~n_cols:2 [| (0, 0, 1.) |]) in
  let b = Csr.of_coo (Coo.make ~n_rows:2 ~n_cols:2 [| (0, 0, 2.); (1, 1, 4.) |]) in
  let s = Sparse_ops.add a b in
  check_int "union structure" 2 (Csr.nnz s);
  check_float "overlapping summed" 3. (Csr.get s 0 0);
  check_float "disjoint kept" 4. (Csr.get s 1 1)

(* The COO construction [Sparse_ops.add] replaced: both operands' entries
   as one boxed list, sorted and summed by [Coo.make], rebuilt as CSR. Kept
   as the reference the row merge must match. *)
let coo_add (a : Csr.t) (b : Csr.t) =
  let entries = ref [] in
  Csr.iter (fun i j v -> entries := (i, j, v) :: !entries) a;
  Csr.iter (fun i j v -> entries := (i, j, v) :: !entries) b;
  Csr.of_coo (Coo.make ~n_rows:a.Csr.n_rows ~n_cols:a.Csr.n_cols (Array.of_list !entries))

let rows_of ~n row =
  let row_ptr = Array.make (n + 1) 0 in
  let rows = Array.init n row in
  Array.iteri (fun i r -> row_ptr.(i + 1) <- row_ptr.(i) + Array.length r) rows;
  (row_ptr, Array.concat (Array.to_list rows))

(* One square n x n operand of a shape the executor can hand to
   [Sparse_add]: a star, empty rows, sorted rows, rows left unsorted by
   [Reorder.permute_csr], arbitrary rows through [Csr.make] (any order,
   repeated columns), or a diagonal built as dispatch builds it. Weighted
   with probability 1/2 (the diagonal always is). *)
let add_operand rng ~n =
  let module Prng = Granii_tensor.Prng in
  let value () = Prng.uniform rng (-2.) 2. in
  let weigh (m : Csr.t) =
    if Prng.bool rng 0.5 then Csr.with_values m (Array.init (Csr.nnz m) (fun _ -> value ()))
    else m
  in
  let sorted () =
    let p = Prng.uniform rng 0. 0.5 in
    let row_ptr, col_idx =
      rows_of ~n (fun _ ->
          Array.of_list (List.filter (fun _ -> Prng.bool rng p) (List.init n Fun.id)))
    in
    Csr.make ~n_rows:n ~n_cols:n ~row_ptr ~col_idx ~values:None
  in
  match Prng.int rng 6 with
  | 0 when n >= 1 -> weigh (Granii_graph.Generators.star ~n).Granii_graph.Graph.adj
  | 1 -> Csr.make ~n_rows:n ~n_cols:n ~row_ptr:(Array.make (n + 1) 0) ~col_idx:[||] ~values:None
  | 2 ->
      let perm = Array.init n Fun.id in
      Prng.shuffle_in_place rng perm;
      Granii_graph.Reorder.permute_csr
        (Granii_graph.Reorder.of_perm ~strategy:Granii_graph.Reorder.Degree_sort perm)
        (weigh (sorted ()))
  | 3 ->
      let row_ptr, col_idx =
        rows_of ~n (fun _ -> Array.init (Prng.int rng 6) (fun _ -> Prng.int rng n))
      in
      weigh (Csr.make ~n_rows:n ~n_cols:n ~row_ptr ~col_idx ~values:None)
  | 4 -> Granii_core.Dispatch.diag_to_csr (Array.init n (fun _ -> value ()))
  | _ -> weigh (sorted ())

let add_pair_gen =
  let open QCheck2.Gen in
  let* n = frequency [ (1, return 0); (1, return 1); (6, int_range 2 14) ] in
  let* seed = int_range 0 100_000 in
  let rng = Granii_tensor.Prng.create seed in
  let a = add_operand rng ~n in
  return (a, add_operand rng ~n)

let repeats_a_column (m : Csr.t) =
  let seen = Hashtbl.create 16 in
  let rep = ref false in
  Csr.iter
    (fun i j _ -> if Hashtbl.mem seen (i, j) then rep := true else Hashtbl.add seen (i, j) ())
    m;
  !rep

(* Structure always equal to the COO reference, and the result weighted.
   Values are bit-equal when no operand row repeats a column (each output is
   one value or one commutative A + B). With repeats, the reference's
   unstable heap sort leaves the summation order of 3+ terms undefined, so
   values agree within 1e-12 relative to max(1, |x|) (operands lie in
   [-2, 2]). *)
let test_sparse_add_matches_coo =
  qtest ~count:400 "add matches the COO construction" add_pair_gen (fun (a, b) ->
      let got = Sparse_ops.add a b and want = coo_add a b in
      let gv = Option.get got.Csr.values and wv = Option.get want.Csr.values in
      let value_ok =
        if repeats_a_column a || repeats_a_column b then
          Array.for_all2
            (fun x y -> Float.abs (x -. y) <= 1e-12 *. Float.max 1. (Float.abs x))
            gv wv
        else Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) gv wv
      in
      got.Csr.n_rows = want.Csr.n_rows && got.Csr.n_cols = want.Csr.n_cols
      && got.Csr.row_ptr = want.Csr.row_ptr && got.Csr.col_idx = want.Csr.col_idx
      && value_ok)

(* The read-modify-write loop [Spmm.run]'s arithmetic fast path replaced:
   a zero-filled output, updated once per (stored entry, column). Untiled,
   since tiling never changed any output element's order of additions.
   [vals = None] never reads an edge value (unweighted, or plus_rhs). *)
let rmw_spmm ~vals (a : Csr.t) (b : Dense.t) =
  let n = a.Csr.n_rows and k = b.Dense.cols in
  let bd = b.Dense.data in
  let row_ptr = a.Csr.row_ptr and col_idx = a.Csr.col_idx in
  let out = Array.make (n * k) 0. in
  for i = 0 to n - 1 do
    let obase = i * k in
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let bbase = col_idx.(p) * k in
      match vals with
      | Some vals ->
          let v = vals.(p) in
          for j = 0 to k - 1 do
            out.(obase + j) <- out.(obase + j) +. (v *. bd.(bbase + j))
          done
      | None ->
          for j = 0 to k - 1 do
            out.(obase + j) <- out.(obase + j) +. bd.(bbase + j)
          done
    done
  done;
  out

type spmm_mode = Weighted | Unweighted | Rhs_on_weighted

(* Operands as for [add]; a dense operand whose entries include exact +0.0
   and -0.0 (a kernel seeding its accumulator with the first term instead of
   +0.0 returns -0.0 where the loop returned +0.0); every strip remainder
   (k = 0..19), tile width, and pool width; and whether the output comes
   from a workspace whose recycled buffer of that size was NaN-filled. *)
let spmm_case_gen =
  let open QCheck2.Gen in
  let* n = frequency [ (1, return 0); (1, return 1); (6, int_range 2 14) ] in
  let* seed = int_range 0 100_000 in
  let* k = int_range 0 19 in
  let* mode = oneofl [ Weighted; Unweighted; Rhs_on_weighted ] in
  let* tile_k = oneofl [ None; Some 1; Some 7; Some 12 ] in
  let* width = oneofl [ 1; 2 ] in
  let* recycled = bool in
  let rng = Prng.create seed in
  let a = add_operand rng ~n in
  let a =
    match mode with
    | Unweighted -> Csr.drop_values a
    | Weighted | Rhs_on_weighted ->
        if Csr.is_weighted a then a
        else Csr.with_values a (Array.init (Csr.nnz a) (fun _ -> Prng.uniform rng (-2.) 2.))
  in
  let b =
    Dense.init n k (fun _ _ ->
        match Prng.int rng 8 with
        | 0 -> 0.
        | 1 -> -0.
        | _ -> Prng.uniform rng (-2.) 2.)
  in
  return (a, b, mode, tile_k, width, recycled)

let print_spmm_case (a, (b : Dense.t), mode, tile_k, width, recycled) =
  Printf.sprintf "n=%d nnz=%d k=%d mode=%s tile_k=%s width=%d recycled=%b" a.Csr.n_rows
    (Csr.nnz a) b.Dense.cols
    (match mode with
    | Weighted -> "weighted"
    | Unweighted -> "unweighted"
    | Rhs_on_weighted -> "plus_rhs")
    (match tile_k with None -> "none" | Some t -> string_of_int t)
    width recycled

let test_spmm_matches_rmw () =
  let pools = [ (1, Parallel.create ~threads:1 ()); (2, Parallel.create ~threads:2 ()) ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, p) -> Parallel.shutdown p) pools)
    (fun () ->
      QCheck2.Test.check_exn
        (QCheck2.Test.make ~count:600 ~name:"spmm matches the read-modify-write reference"
           ~print:print_spmm_case spmm_case_gen
           (fun (a, b, mode, tile_k, width, recycled) ->
             let semiring, vals =
               match mode with
               | Weighted -> (Semiring.plus_times, a.Csr.values)
               | Unweighted -> (Semiring.plus_times, None)
               | Rhs_on_weighted -> (Semiring.plus_rhs, None)
             in
             let len = a.Csr.n_rows * b.Dense.cols in
             let ws, poisoned =
               if recycled then begin
                 let ws = Workspace.create () in
                 let buf = Workspace.alloc_uninit (Some ws) len in
                 Array.fill buf 0 len Float.nan;
                 Workspace.give_back (Some ws) buf;
                 (Some ws, Some buf)
               end
               else (None, None)
             in
             let got =
               Spmm.run ~semiring ~pool:(List.assoc width pools) ?ws ?tile_k a b
             in
             let want = rmw_spmm ~vals a b in
             (* the poisoned buffer really was the one written *)
             Option.fold ~none:true ~some:(fun buf -> got.Dense.data == buf) poisoned
             && got.Dense.rows = a.Csr.n_rows && got.Dense.cols = b.Dense.cols
             && Array.for_all2
                  (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                  got.Dense.data want)))

let test_row_softmax () =
  let m =
    Csr.of_coo (Coo.make ~n_rows:2 ~n_cols:3 [| (0, 0, 1.); (0, 2, 1.); (1, 1, 100.) |])
  in
  let s = Sparse_ops.row_softmax m in
  check_float "uniform over equal scores" 0.5 (Csr.get s 0 0);
  check_float "single entry row is 1" 1. (Csr.get s 1 1);
  let sums = Sparse_ops.row_sums s in
  check_float ~eps:1e-12 "rows sum to 1" 1. sums.(0)

let test_csc_roundtrip =
  qtest "CSC <-> CSR roundtrip" csr_gen (fun m ->
      Csr.equal_approx m (Csc.to_csr (Csc.of_csr m)))

let test_csc_dense_agree =
  qtest "CSC to_dense = CSR to_dense" csr_gen (fun m ->
      Granii_tensor.Dense.equal_approx
        (Csc.to_dense (Csc.of_csr m))
        (Csr.to_dense m))

let test_csc_spmm_agree =
  qtest ~count:150 "column-driven SpMM = row-driven SpMM" csr_gen (fun m ->
      let b = Granii_tensor.Dense.random ~seed:(Csr.nnz m + 1) m.Csr.n_cols 4 in
      Granii_tensor.Dense.equal_approx ~eps:1e-9
        (Csc.spmm (Csc.of_csr m) b)
        (Spmm.run m b))

let test_csc_get =
  qtest "CSC get = CSR get" csr_gen (fun m ->
      let c = Csc.of_csr m in
      let ok = ref true in
      for i = 0 to m.Csr.n_rows - 1 do
        for j = 0 to m.Csr.n_cols - 1 do
          if Float.abs (Csc.get c i j -. Csr.get m i j) > 1e-12 then ok := false
        done
      done;
      !ok && Csc.nnz c = Csr.nnz m)

let test_degrees_agree () =
  let m = Csr.drop_values (small_csr ()) in
  check_true "binned = rowptr degree values"
    (Vector.equal_approx (Sparse_ops.binned_degrees m) (Sparse_ops.row_sums m))

(* ---- counting scatter ---- *)

let test_counting_scatter_csc =
  (* bucket by column = the CSC construction: per-bucket entries must keep
     row-major source order (stability), with exact prefix accounting *)
  qtest "counting_scatter: column buckets are stable and exact" csr_gen
    (fun m ->
      let nnz = Csr.nnz m in
      let ptr, order, src_row =
        Csr.counting_scatter ~n_buckets:m.Csr.n_cols
          ~bucket:(fun _ p -> m.Csr.col_idx.(p))
          m
      in
      Array.length ptr = m.Csr.n_cols + 1
      && ptr.(m.Csr.n_cols) = nnz
      && Array.length order = nnz
      && Array.length src_row = nnz
      && (let ok = ref true in
          for j = 0 to m.Csr.n_cols - 1 do
            if ptr.(j) > ptr.(j + 1) then ok := false;
            for q = ptr.(j) to ptr.(j + 1) - 1 do
              if m.Csr.col_idx.(order.(q)) <> j then ok := false;
              (* stability: source positions ascend within a bucket *)
              if q > ptr.(j) && order.(q - 1) >= order.(q) then ok := false;
              (* src_row really is the row the entry lives in *)
              let i = src_row.(q) in
              if
                order.(q) < m.Csr.row_ptr.(i)
                || order.(q) >= m.Csr.row_ptr.(i + 1)
              then ok := false
            done
          done;
          !ok))

let test_counting_scatter_degenerate () =
  let empty = Csr.of_coo (Coo.make ~n_rows:4 ~n_cols:4 [||]) in
  let ptr, order, src_row =
    Csr.counting_scatter ~n_buckets:3 ~bucket:(fun _ _ -> 0) empty
  in
  check_true "empty matrix: all prefixes zero"
    (ptr = [| 0; 0; 0; 0 |] && order = [||] && src_row = [||]);
  let m = List.assoc "single dense row" degenerates in
  let ptr1, order1, _ =
    Csr.counting_scatter ~n_buckets:1 ~bucket:(fun _ _ -> 0) m
  in
  check_true "one bucket: identity order"
    (ptr1 = [| 0; Csr.nnz m |]
    && order1 = Array.init (Csr.nnz m) Fun.id);
  check_true "out-of-range bucket rejected"
    (try
       ignore (Csr.counting_scatter ~n_buckets:1 ~bucket:(fun _ _ -> 1) m);
       false
     with Invalid_argument _ -> true)

let suite =
  [ Alcotest.test_case "coo dedup" `Quick test_coo_dedup;
    Alcotest.test_case "coo bounds" `Quick test_coo_bounds;
    Alcotest.test_case "coo symmetrize" `Quick test_coo_symmetrize;
    Alcotest.test_case "csr structure" `Quick test_csr_structure;
    test_csr_transpose_involution;
    test_csr_transpose_dense;
    test_csr_of_dense_roundtrip;
    Alcotest.test_case "csr unweighted" `Quick test_csr_unweighted;
    Alcotest.test_case "csr validation" `Quick test_csr_validation;
    test_spmm_reference;
    test_spmm_unweighted_reference;
    test_spmm_transposed_reference;
    Alcotest.test_case "spmm max_plus semiring" `Quick test_spmm_semiring_max_plus;
    Alcotest.test_case "spmv" `Quick test_spmv;
    test_sddmm_reference;
    test_sddmm_rank1_matches_general;
    test_dot_rows_matches_run;
    test_scale_rows_cols;
    Alcotest.test_case "sparse add" `Quick test_sparse_add;
    test_sparse_add_matches_coo;
    Alcotest.test_case "spmm matches the read-modify-write reference" `Quick
      test_spmm_matches_rmw;
    Alcotest.test_case "row softmax" `Quick test_row_softmax;
    test_csc_roundtrip;
    test_csc_dense_agree;
    test_csc_spmm_agree;
    test_csc_get;
    Alcotest.test_case "degree kernels agree" `Quick test_degrees_agree;
    test_counting_scatter_csc;
    Alcotest.test_case "counting scatter degenerate" `Quick
      test_counting_scatter_degenerate ]
