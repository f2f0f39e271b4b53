module Dense = Granii_tensor.Dense
module Semiring = Granii_tensor.Semiring
module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace

(* The arithmetic kernels (plus_times and plus_rhs) keep their
   accumulators in registers. Each output row is walked in 8-wide column
   strips: eight local float refs, which ocamlopt keeps unboxed because they
   never escape, sum the row's entries in ascending storage order and are
   stored once when the row's entries run out. A 4-wide strip and then
   single columns cover the remainder. Against a read-modify-write of the
   output per (entry, column) this removes a load and a store per
   multiply-add, which is what bound the kernel (SENSEi: SpMM is bound by
   memory traffic, not flops). Every accumulator starts at +0.0 — the value
   a zero-filled output held — and adds the same terms in the same order, so
   the result is bitwise that of the read-modify-write loop; empty rows
   store +0.0.

   Feature-dimension tiling: above [tile_threshold] columns the dense
   operand's rows are processed in strips of [default_tile] columns, so the
   slice of B touched by a chunk's neighborhoods stays cache-resident across
   consecutive output rows. Strips re-walk the CSR structure once per strip,
   so tiling only pays off once rows of B outgrow the index-rewalk cost —
   narrow features keep the single-pass loop. Per output element the
   accumulation still runs over the row's nonzeros in ascending order, so
   tiled, untiled, and parallel kernels all agree bit for bit. *)
let tile_threshold = 512
let default_tile = 256

let strip_width k = function
  | Some t when t > 0 -> min t k
  | Some _ | None -> if k >= tile_threshold then default_tile else k

(* Row [i] of [A * B] over columns [jlo, jhi), weighted plus_times. [Csr.t]
   is private and validated on construction, and [run] checks
   [b.rows = a.n_cols], so every index below is in bounds. *)
let weighted_row ~vals ~row_ptr ~col_idx ~bd ~out ~k i jlo jhi =
  let p0 = Array.unsafe_get row_ptr i and p1 = Array.unsafe_get row_ptr (i + 1) in
  let obase = i * k in
  let j = ref jlo in
  while !j + 8 <= jhi do
    let j0 = !j in
    let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
    let c4 = ref 0. and c5 = ref 0. and c6 = ref 0. and c7 = ref 0. in
    for p = p0 to p1 - 1 do
      let v = Array.unsafe_get vals p in
      let b = (Array.unsafe_get col_idx p * k) + j0 in
      c0 := !c0 +. (v *. Array.unsafe_get bd b);
      c1 := !c1 +. (v *. Array.unsafe_get bd (b + 1));
      c2 := !c2 +. (v *. Array.unsafe_get bd (b + 2));
      c3 := !c3 +. (v *. Array.unsafe_get bd (b + 3));
      c4 := !c4 +. (v *. Array.unsafe_get bd (b + 4));
      c5 := !c5 +. (v *. Array.unsafe_get bd (b + 5));
      c6 := !c6 +. (v *. Array.unsafe_get bd (b + 6));
      c7 := !c7 +. (v *. Array.unsafe_get bd (b + 7))
    done;
    let o = obase + j0 in
    Array.unsafe_set out o !c0;
    Array.unsafe_set out (o + 1) !c1;
    Array.unsafe_set out (o + 2) !c2;
    Array.unsafe_set out (o + 3) !c3;
    Array.unsafe_set out (o + 4) !c4;
    Array.unsafe_set out (o + 5) !c5;
    Array.unsafe_set out (o + 6) !c6;
    Array.unsafe_set out (o + 7) !c7;
    j := j0 + 8
  done;
  if !j + 4 <= jhi then begin
    let j0 = !j in
    let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
    for p = p0 to p1 - 1 do
      let v = Array.unsafe_get vals p in
      let b = (Array.unsafe_get col_idx p * k) + j0 in
      c0 := !c0 +. (v *. Array.unsafe_get bd b);
      c1 := !c1 +. (v *. Array.unsafe_get bd (b + 1));
      c2 := !c2 +. (v *. Array.unsafe_get bd (b + 2));
      c3 := !c3 +. (v *. Array.unsafe_get bd (b + 3))
    done;
    let o = obase + j0 in
    Array.unsafe_set out o !c0;
    Array.unsafe_set out (o + 1) !c1;
    Array.unsafe_set out (o + 2) !c2;
    Array.unsafe_set out (o + 3) !c3;
    j := j0 + 4
  end;
  for j0 = !j to jhi - 1 do
    let c = ref 0. in
    for p = p0 to p1 - 1 do
      c :=
        !c
        +. (Array.unsafe_get vals p
           *. Array.unsafe_get bd ((Array.unsafe_get col_idx p * k) + j0))
    done;
    Array.unsafe_set out (obase + j0) !c
  done

(* [weighted_row] without the edge value: unweighted plus_times, and
   plus_rhs on any matrix. *)
let unweighted_row ~row_ptr ~col_idx ~bd ~out ~k i jlo jhi =
  let p0 = Array.unsafe_get row_ptr i and p1 = Array.unsafe_get row_ptr (i + 1) in
  let obase = i * k in
  let j = ref jlo in
  while !j + 8 <= jhi do
    let j0 = !j in
    let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
    let c4 = ref 0. and c5 = ref 0. and c6 = ref 0. and c7 = ref 0. in
    for p = p0 to p1 - 1 do
      let b = (Array.unsafe_get col_idx p * k) + j0 in
      c0 := !c0 +. Array.unsafe_get bd b;
      c1 := !c1 +. Array.unsafe_get bd (b + 1);
      c2 := !c2 +. Array.unsafe_get bd (b + 2);
      c3 := !c3 +. Array.unsafe_get bd (b + 3);
      c4 := !c4 +. Array.unsafe_get bd (b + 4);
      c5 := !c5 +. Array.unsafe_get bd (b + 5);
      c6 := !c6 +. Array.unsafe_get bd (b + 6);
      c7 := !c7 +. Array.unsafe_get bd (b + 7)
    done;
    let o = obase + j0 in
    Array.unsafe_set out o !c0;
    Array.unsafe_set out (o + 1) !c1;
    Array.unsafe_set out (o + 2) !c2;
    Array.unsafe_set out (o + 3) !c3;
    Array.unsafe_set out (o + 4) !c4;
    Array.unsafe_set out (o + 5) !c5;
    Array.unsafe_set out (o + 6) !c6;
    Array.unsafe_set out (o + 7) !c7;
    j := j0 + 8
  done;
  if !j + 4 <= jhi then begin
    let j0 = !j in
    let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. and c3 = ref 0. in
    for p = p0 to p1 - 1 do
      let b = (Array.unsafe_get col_idx p * k) + j0 in
      c0 := !c0 +. Array.unsafe_get bd b;
      c1 := !c1 +. Array.unsafe_get bd (b + 1);
      c2 := !c2 +. Array.unsafe_get bd (b + 2);
      c3 := !c3 +. Array.unsafe_get bd (b + 3)
    done;
    let o = obase + j0 in
    Array.unsafe_set out o !c0;
    Array.unsafe_set out (o + 1) !c1;
    Array.unsafe_set out (o + 2) !c2;
    Array.unsafe_set out (o + 3) !c3;
    j := j0 + 4
  end;
  for j0 = !j to jhi - 1 do
    let c = ref 0. in
    for p = p0 to p1 - 1 do
      c := !c +. Array.unsafe_get bd ((Array.unsafe_get col_idx p * k) + j0)
    done;
    Array.unsafe_set out (obase + j0) !c
  done

let run ?(semiring = Semiring.plus_times) ?pool ?ws ?tile_k ?(epilogue = [])
    (a : Csr.t) (b : Dense.t) =
  if a.Csr.n_cols <> b.Dense.rows then
    invalid_arg "Spmm.run: inner dimension mismatch";
  let n = a.Csr.n_rows and k = b.Dense.cols in
  Dense.check_epilogue ~who:"Spmm.run" ~rows:n epilogue;
  (* a strip of row [i] is final once its row kernel returns: the epilogue
     runs on it there, while it is still in cache *)
  let fused = epilogue <> [] in
  let bd = b.Dense.data in
  let row_ptr = a.Csr.row_ptr and col_idx = a.Csr.col_idx in
  let tk = strip_width k tile_k in
  (* All branches chunk output rows with the nonzero-balanced partitioner:
     a row never spans chunks, so per-row accumulation order — and therefore
     the result, bit for bit — matches the sequential kernel. *)
  if Semiring.is_plus_times semiring || Semiring.equal_name semiring Semiring.plus_rhs
  then begin
    (* every slot is stored exactly once by a strip or a tail *)
    let out = Workspace.alloc_uninit ws (n * k) in
    let row =
      match a.Csr.values with
      | Some vals when Semiring.is_plus_times semiring -> weighted_row ~vals
      | Some _ | None ->
          (* Unweighted fast path, and plus_rhs on any matrix: the edge value
             is never read (the paper's cheap aggregation for unweighted
             graphs). *)
          unweighted_row
    in
    Parallel.rows_weighted ?pool ~prefix:row_ptr (fun lo hi ->
        let st = Dense.epilogue_start epilogue in
        let j0 = ref 0 in
        while !j0 < k do
          let jhi = min k (!j0 + tk) in
          for i = lo to hi - 1 do
            row ~row_ptr ~col_idx ~bd ~out ~k i !j0 jhi;
            if fused then
              Dense.epilogue_row st out ~row:i ~lo:((i * k) + !j0)
                ~hi:((i * k) + jhi)
          done;
          j0 := jhi
        done);
    Dense.of_flat ~rows:n ~cols:k out
  end
  else begin
    (* Generic-semiring path, in the same row-major accumulation structure as
       the fast path (one pass over each row's nonzeros, streaming over B's
       rows) instead of an element-at-a-time [Dense.init] that re-walked
       [row_ptr] bounds per (i, j). *)
    let sr = semiring in
    let out = Workspace.alloc_fill ws sr.Semiring.zero (n * k) in
    Parallel.rows_weighted ?pool ~prefix:row_ptr (fun lo hi ->
        let st = Dense.epilogue_start epilogue in
        let j0 = ref 0 in
        while !j0 < k do
          let jhi = min k (!j0 + tk) in
          for i = lo to hi - 1 do
            let obase = i * k in
            for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
              let v = Csr.value a p in
              let bbase = col_idx.(p) * k in
              for j = !j0 to jhi - 1 do
                out.(obase + j) <- sr.Semiring.add out.(obase + j) (sr.Semiring.mul v bd.(bbase + j))
              done
            done;
            if fused then
              Dense.epilogue_row st out ~row:i ~lo:(obase + !j0)
                ~hi:(obase + jhi)
          done;
          j0 := jhi
        done);
    Dense.of_flat ~rows:n ~cols:k out
  end

(* [A^T * B] as a scatter in row order: row i of A sends each stored entry
   (i, c) to output row c. Output row c therefore receives A's column-c
   entries in ascending source row (storage order within a row) — the order
   [Csr.transpose]'s stable counting scatter stores them in row c of the
   transpose — and starts at +0.0, so it adds the same terms in the same
   order as [run (Csr.transpose a) b]: bitwise equal, without the copy.
   [Csr.t] is validated on construction and the row counts are checked, so
   every index below is in bounds. *)
let run_t (a : Csr.t) (b : Dense.t) =
  if a.Csr.n_rows <> b.Dense.rows then invalid_arg "Spmm.run_t: row count mismatch";
  let n = a.Csr.n_cols and k = b.Dense.cols in
  let out = Array.make (n * k) 0. in
  let bd = b.Dense.data in
  let row_ptr = a.Csr.row_ptr and col_idx = a.Csr.col_idx in
  for i = 0 to a.Csr.n_rows - 1 do
    let bbase = i * k in
    for p = Array.unsafe_get row_ptr i to Array.unsafe_get row_ptr (i + 1) - 1 do
      let obase = Array.unsafe_get col_idx p * k in
      match a.Csr.values with
      | Some vals ->
          let v = Array.unsafe_get vals p in
          for j = 0 to k - 1 do
            Array.unsafe_set out (obase + j)
              (Array.unsafe_get out (obase + j) +. (v *. Array.unsafe_get bd (bbase + j)))
          done
      | None ->
          (* unweighted: add B's row directly, as [unweighted_row] does *)
          for j = 0 to k - 1 do
            Array.unsafe_set out (obase + j)
              (Array.unsafe_get out (obase + j) +. Array.unsafe_get bd (bbase + j))
          done
    done
  done;
  Dense.of_flat ~rows:n ~cols:k out

let run_transposed ?pool ?ws (b : Dense.t) (a : Csr.t) =
  if b.Dense.cols <> a.Csr.n_rows then
    invalid_arg "Spmm.run_transposed: inner dimension mismatch";
  let m = b.Dense.rows and n = a.Csr.n_cols in
  let out = Workspace.alloc ws (m * n) in
  let bd = b.Dense.data in
  let row_ptr = a.Csr.row_ptr and col_idx = a.Csr.col_idx in
  (* (B * A).(i, c) = sum over r of B.(i, r) * A.(r, c): iterate the sparse
     entries (r, c) and scatter into row i of the output, so writes stay in a
     single contiguous row per outer iteration — and each output row is owned
     by one chunk, so the parallel path scatters without conflicts. *)
  (match a.Csr.values with
  | Some vals ->
      Parallel.rows ?pool ~n:m (fun lo hi ->
          for i = lo to hi - 1 do
            let bbase = i * b.Dense.cols and obase = i * n in
            for r = 0 to a.Csr.n_rows - 1 do
              let biv = bd.(bbase + r) in
              if biv <> 0. then
                for p = row_ptr.(r) to row_ptr.(r + 1) - 1 do
                  let c = col_idx.(p) in
                  out.(obase + c) <- out.(obase + c) +. (biv *. vals.(p))
                done
            done
          done)
  | None ->
      Parallel.rows ?pool ~n:m (fun lo hi ->
          for i = lo to hi - 1 do
            let bbase = i * b.Dense.cols and obase = i * n in
            for r = 0 to a.Csr.n_rows - 1 do
              let biv = bd.(bbase + r) in
              if biv <> 0. then
                for p = row_ptr.(r) to row_ptr.(r + 1) - 1 do
                  let c = col_idx.(p) in
                  out.(obase + c) <- out.(obase + c) +. biv
                done
            done
          done));
  Dense.of_flat ~rows:m ~cols:n out

let spmv ?semiring ?pool (a : Csr.t) (v : Granii_tensor.Vector.t) =
  let b = Dense.of_flat ~rows:(Array.length v) ~cols:1 (Array.copy v) in
  let c = run ?semiring ?pool a b in
  c.Dense.data
