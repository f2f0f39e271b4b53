module Dense = Granii_tensor.Dense
module Semiring = Granii_tensor.Semiring
module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace

(* All kernels chunk mask rows with the nonzero-balanced partitioner; each
   stored position (and so each output slot) belongs to exactly one chunk,
   keeping the parallel result bitwise identical to the sequential one.

   Wide feature dimensions are processed in strips (see Spmm): the partial
   dot products accumulate term by term into the output slot across strips —
   the exact addition sequence of the single-pass kernel — and the mask value
   multiplies the finished dot once at the end, so the tiled kernel is
   bitwise identical to the untiled one. *)

let tile_threshold = 512
let default_tile = 256

let strip_width k = function
  | Some t when t > 0 -> min t k
  | Some _ | None -> if k >= tile_threshold then default_tile else k

let run ?(semiring = Semiring.plus_times) ?pool ?ws ?tile_k (mask : Csr.t)
    (a : Dense.t) (b : Dense.t) =
  if a.Dense.rows <> mask.Csr.n_rows then
    invalid_arg "Sddmm.run: A row count must match mask rows";
  if b.Dense.cols <> mask.Csr.n_cols then
    invalid_arg "Sddmm.run: B column count must match mask cols";
  if a.Dense.cols <> b.Dense.rows then invalid_arg "Sddmm.run: inner dimension mismatch";
  let k = a.Dense.cols in
  let tk = strip_width k tile_k in
  let count = Csr.nnz mask in
  let sr = semiring in
  let plus_times = Semiring.is_plus_times sr in
  let out =
    if plus_times then Workspace.alloc ws count
    else Workspace.alloc_fill ws sr.Semiring.zero count
  in
  let row_ptr = mask.Csr.row_ptr and col_idx = mask.Csr.col_idx in
  let ad = a.Dense.data and bd = b.Dense.data and bn = b.Dense.cols in
  Parallel.rows_weighted ?pool ~prefix:row_ptr (fun lo hi ->
      if tk >= k then
        for i = lo to hi - 1 do
          let abase = i * k in
          for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            let j = col_idx.(p) in
            let dotv =
              if plus_times then begin
                let acc = ref 0. in
                for q = 0 to k - 1 do
                  acc := !acc +. (ad.(abase + q) *. bd.((q * bn) + j))
                done;
                !acc
              end
              else begin
                let acc = ref sr.Semiring.zero in
                for q = 0 to k - 1 do
                  acc :=
                    sr.Semiring.add !acc
                      (sr.Semiring.mul ad.(abase + q) bd.((q * bn) + j))
                done;
                !acc
              end
            in
            out.(p) <- (if plus_times then Csr.value mask p *. dotv
                        else sr.Semiring.mul (Csr.value mask p) dotv)
          done
        done
      else begin
        let q0 = ref 0 in
        while !q0 < k do
          let qhi = min k (!q0 + tk) in
          for i = lo to hi - 1 do
            let abase = i * k in
            for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
              let j = col_idx.(p) in
              if plus_times then begin
                let acc = ref out.(p) in
                for q = !q0 to qhi - 1 do
                  acc := !acc +. (ad.(abase + q) *. bd.((q * bn) + j))
                done;
                out.(p) <- !acc
              end
              else begin
                let acc = ref out.(p) in
                for q = !q0 to qhi - 1 do
                  acc :=
                    sr.Semiring.add !acc
                      (sr.Semiring.mul ad.(abase + q) bd.((q * bn) + j))
                done;
                out.(p) <- !acc
              end
            done
          done;
          q0 := qhi
        done;
        for i = lo to hi - 1 do
          for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            out.(p) <- (if plus_times then Csr.value mask p *. out.(p)
                        else sr.Semiring.mul (Csr.value mask p) out.(p))
          done
        done
      end);
  Csr.with_values mask out

(* The mask's weightedness is matched once per call, not per entry: each
   stored position still computes [(m_p *. dl) *. d_right.(j)], with
   [m_p = 1.] for an unweighted mask, so the product is bitwise the
   per-entry [Csr.value] loop's. *)
let rank1 ?pool ?ws (mask : Csr.t) d_left d_right =
  if Array.length d_left <> mask.Csr.n_rows then
    invalid_arg "Sddmm.rank1: left vector dimension mismatch";
  if Array.length d_right <> mask.Csr.n_cols then
    invalid_arg "Sddmm.rank1: right vector dimension mismatch";
  let count = Csr.nnz mask in
  let out = Workspace.alloc_uninit ws count in
  let row_ptr = mask.Csr.row_ptr and col_idx = mask.Csr.col_idx in
  (match mask.Csr.values with
  | Some v ->
      Parallel.rows_weighted ?pool ~prefix:row_ptr (fun lo hi ->
          for i = lo to hi - 1 do
            let dl = d_left.(i) in
            for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
              out.(p) <- v.(p) *. dl *. d_right.(col_idx.(p))
            done
          done)
  | None ->
      Parallel.rows_weighted ?pool ~prefix:row_ptr (fun lo hi ->
          for i = lo to hi - 1 do
            let dl = 1. *. d_left.(i) in
            for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
              out.(p) <- dl *. d_right.(col_idx.(p))
            done
          done));
  Csr.with_values mask out

let dot_rows ?pool ?ws ?tile_k (mask : Csr.t) (x : Dense.t) (y : Dense.t) =
  if x.Dense.rows <> mask.Csr.n_rows then
    invalid_arg "Sddmm.dot_rows: X row count must match mask rows";
  if y.Dense.rows <> mask.Csr.n_cols then
    invalid_arg "Sddmm.dot_rows: Y row count must match mask cols";
  if x.Dense.cols <> y.Dense.cols then
    invalid_arg "Sddmm.dot_rows: feature dimension mismatch";
  let k = x.Dense.cols in
  let tk = strip_width k tile_k in
  let count = Csr.nnz mask in
  let out = Workspace.alloc ws count in
  let row_ptr = mask.Csr.row_ptr and col_idx = mask.Csr.col_idx in
  let xd = x.Dense.data and yd = y.Dense.data in
  Parallel.rows_weighted ?pool ~prefix:row_ptr (fun lo hi ->
      if tk >= k then
        for i = lo to hi - 1 do
          let xbase = i * k in
          for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            let ybase = col_idx.(p) * k in
            let acc = ref 0. in
            for q = 0 to k - 1 do
              acc := !acc +. (xd.(xbase + q) *. yd.(ybase + q))
            done;
            out.(p) <- Csr.value mask p *. !acc
          done
        done
      else begin
        let q0 = ref 0 in
        while !q0 < k do
          let qhi = min k (!q0 + tk) in
          for i = lo to hi - 1 do
            let xbase = i * k in
            for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
              let ybase = col_idx.(p) * k in
              let acc = ref out.(p) in
              for q = !q0 to qhi - 1 do
                acc := !acc +. (xd.(xbase + q) *. yd.(ybase + q))
              done;
              out.(p) <- !acc
            done
          done;
          q0 := qhi
        done;
        for i = lo to hi - 1 do
          for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            out.(p) <- Csr.value mask p *. out.(p)
          done
        done
      end);
  Csr.with_values mask out
