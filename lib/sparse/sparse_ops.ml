module Vector = Granii_tensor.Vector
module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace

let scale_rows ?pool ?ws d (a : Csr.t) =
  if Array.length d <> a.Csr.n_rows then
    invalid_arg "Sparse_ops.scale_rows: dimension mismatch";
  let count = Csr.nnz a in
  let out = Workspace.alloc_uninit ws count in
  Parallel.rows_weighted ?pool ~prefix:a.Csr.row_ptr (fun lo hi ->
      for i = lo to hi - 1 do
        for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
          out.(p) <- d.(i) *. Csr.value a p
        done
      done);
  Csr.with_values a out

let scale_cols ?pool ?ws (a : Csr.t) d =
  if Array.length d <> a.Csr.n_cols then
    invalid_arg "Sparse_ops.scale_cols: dimension mismatch";
  let count = Csr.nnz a in
  let out = Workspace.alloc_uninit ws count in
  (* value-parallel, not row-parallel: the entry stream is the only index *)
  Parallel.rows ?pool ~n:count (fun lo hi ->
      for p = lo to hi - 1 do
        out.(p) <- Csr.value a p *. d.(a.Csr.col_idx.(p))
      done);
  Csr.with_values a out

let scale_bilateral ?pool ?ws dl (a : Csr.t) dr = Sddmm.rank1 ?pool ?ws a dl dr

(* Stored value [p] of a value array ([None] = unweighted, every entry 1.);
   small enough to inline, so reads in the merge loops stay unboxed. *)
let value_at vals p = match vals with None -> 1. | Some v -> Array.unsafe_get v p

let strictly_increasing col lo hi =
  let ok = ref true and p = ref (lo + 1) in
  while !ok && !p < hi do
    if Array.unsafe_get col (!p - 1) >= Array.unsafe_get col !p then ok := false;
    incr p
  done;
  !ok

(* One row of the sum when either operand row is unsorted or repeats a
   column: the row's entries are keyed by (column, source position), A's
   entries first, then B's, each in storage order. Sorting the keys orders
   the row by column and, within a column, by source position; each run of
   equal columns is summed left to right in that order. Keys are unique, so
   the order is fully determined. Returns the next free output slot. *)
let add_row_sorting ~ac ~avals ~alo ~ahi ~bc ~bvals ~blo ~bhi ~col ~vals q =
  let da = ahi - alo in
  let d = da + (bhi - blo) in
  let keys =
    Array.init d (fun t ->
        let c = if t < da then ac.(alo + t) else bc.(blo + t - da) in
        (c * d) + t)
  in
  Array.sort (fun (x : int) y -> compare x y) keys;
  let q = ref (q - 1) and prev = ref (-1) in
  for s = 0 to d - 1 do
    let c = keys.(s) / d and t = keys.(s) mod d in
    let v = if t < da then value_at avals (alo + t) else value_at bvals (blo + t - da) in
    if c = !prev then vals.(!q) <- vals.(!q) +. v
    else begin
      incr q;
      col.(!q) <- c;
      vals.(!q) <- v;
      prev := c
    end
  done;
  !q + 1

let add (a : Csr.t) (b : Csr.t) =
  if a.Csr.n_rows <> b.Csr.n_rows || a.Csr.n_cols <> b.Csr.n_cols then
    invalid_arg "Sparse_ops.add: shape mismatch";
  let n = a.Csr.n_rows in
  let ac = a.Csr.col_idx and avals = a.Csr.values and arp = a.Csr.row_ptr in
  let bc = b.Csr.col_idx and bvals = b.Csr.values and brp = b.Csr.row_ptr in
  (* the union never exceeds the two operands together; trimmed at the end *)
  let cap = Csr.nnz a + Csr.nnz b in
  let col = Array.make cap 0 and vals = Array.create_float cap in
  let row_ptr = Array.make (n + 1) 0 in
  let q = ref 0 in
  for i = 0 to n - 1 do
    let alo = arp.(i) and ahi = arp.(i + 1) and blo = brp.(i) and bhi = brp.(i + 1) in
    if strictly_increasing ac alo ahi && strictly_increasing bc blo bhi then begin
      (* two-pointer merge of sorted rows; a shared column is A + B *)
      let p = ref alo and r = ref blo in
      while !p < ahi || !r < bhi do
        let ca = if !p < ahi then Array.unsafe_get ac !p else max_int in
        let cb = if !r < bhi then Array.unsafe_get bc !r else max_int in
        if ca < cb then begin
          col.(!q) <- ca;
          vals.(!q) <- value_at avals !p;
          incr p
        end
        else if cb < ca then begin
          col.(!q) <- cb;
          vals.(!q) <- value_at bvals !r;
          incr r
        end
        else begin
          col.(!q) <- ca;
          vals.(!q) <- value_at avals !p +. value_at bvals !r;
          incr p;
          incr r
        end;
        incr q
      done
    end
    else q := add_row_sorting ~ac ~avals ~alo ~ahi ~bc ~bvals ~blo ~bhi ~col ~vals !q;
    row_ptr.(i + 1) <- !q
  done;
  let trim x = if !q = cap then x else Array.sub x 0 !q in
  Csr.make ~n_rows:n ~n_cols:a.Csr.n_cols ~row_ptr ~col_idx:(trim col)
    ~values:(Some (trim vals))

let row_softmax ?pool ?ws (a : Csr.t) =
  let count = Csr.nnz a in
  let out = Workspace.alloc ws count in
  (* read the value array directly: a [Csr.value] call per entry would box
     its float result on every inner-loop read *)
  let vals = a.Csr.values in
  Parallel.rows_weighted ?pool ~prefix:a.Csr.row_ptr (fun rlo rhi ->
      for i = rlo to rhi - 1 do
        let lo = a.Csr.row_ptr.(i) and hi = a.Csr.row_ptr.(i + 1) - 1 in
        if hi >= lo then
          match vals with
          | None ->
              (* unweighted: softmax of equal scores is uniform over the row *)
              let u = 1. /. float_of_int (hi - lo + 1) in
              for p = lo to hi do
                out.(p) <- u
              done
          | Some v ->
              let mx = ref neg_infinity in
              for p = lo to hi do
                if Array.unsafe_get v p > !mx then mx := Array.unsafe_get v p
              done;
              let total = ref 0. in
              for p = lo to hi do
                let e = exp (Array.unsafe_get v p -. !mx) in
                out.(p) <- e;
                total := !total +. e
              done;
              for p = lo to hi do
                out.(p) <- out.(p) /. !total
              done
      done);
  Csr.with_values a out

let row_sums (a : Csr.t) =
  Vector.init a.Csr.n_rows (fun i ->
      let acc = ref 0. in
      for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
        acc := !acc +. Csr.value a p
      done;
      !acc)

let weighted_degrees = row_sums

let binned_degrees (a : Csr.t) =
  (* Semantically a scatter-add over destination bins, exactly what
     WiseGraph's binning function computes. Sequentially there is no atomic
     cost; the hardware model charges contention for it on GPUs. *)
  let bins = Vector.zeros a.Csr.n_rows in
  for i = 0 to a.Csr.n_rows - 1 do
    for p = a.Csr.row_ptr.(i) to a.Csr.row_ptr.(i + 1) - 1 do
      ignore p;
      bins.(i) <- bins.(i) +. 1.
    done
  done;
  bins
