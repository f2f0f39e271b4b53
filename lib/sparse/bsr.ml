module Dense = Granii_tensor.Dense
module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace

(* Block-sparse rows (BSR): the matrix is tiled into r x c blocks and only
   the nonempty blocks are stored, each as a small dense tile (row-major,
   zero-filled padding). SpMM then runs a register tile per block row — its
   own 4 output rows x 2 feature columns of float-ref accumulators — instead
   of a pointer-chase per entry, which is what makes the format profitable
   on dense-leaning hardware (Balog et al., 1906.11786).

   Bitwise contract with the Csr kernels: blocks are sorted by block column
   and tile columns ascend inside each block, so a row's real entries are
   visited in exactly the Csr entry order; the padding slots contribute
   [0. *. b] terms, and adding a signed zero to a finite accumulator never
   changes its bits (a running sum can only be +0.0 before its first nonzero
   term). Unweighted matrices store [1.] at entry slots — [1. *. b] is
   exactly [b] — so one kernel serves both weightednesses. *)

type t = {
  n_rows : int;
  n_cols : int;
  r : int;                      (* block height *)
  c : int;                      (* block width *)
  nb_rows : int;
  nb_cols : int;
  block_ptr : int array;        (* nb_rows + 1: blocks per block row *)
  block_col : int array;        (* per block, ascending within a block row *)
  values : float array;         (* nblocks * r * c, row-major per block *)
  src : Csr.t;                  (* structural ground truth: resolves stored
                                   zeros vs padding, provides the SDDMM
                                   output layout *)
}

let default_block = 8

let nnz b = Csr.nnz b.src
let n_blocks b = b.block_ptr.(b.nb_rows)
let is_weighted b = Csr.is_weighted b.src

(* Fraction of stored tile slots holding a real entry (1.0 = fully dense
   blocks, the regime where the dense lowering wins). *)
let fill b =
  let nb = n_blocks b in
  if nb = 0 then 1.
  else float_of_int (nnz b) /. float_of_int (nb * b.r * b.c)

let of_csr ?(r = default_block) ?(c = default_block) (m : Csr.t) =
  if r < 1 || c < 1 then invalid_arg "Bsr.of_csr: block dims must be >= 1";
  let n = m.Csr.n_rows in
  let row_ptr = m.Csr.row_ptr and col_idx = m.Csr.col_idx in
  let nb_rows = (n + r - 1) / r in
  let nb_cols = (m.Csr.n_cols + c - 1) / c in
  (* Pass 1: distinct block columns per block row, via a stamp array (stamp
     value = block row id, so no O(nb_cols) reset between block rows). *)
  let stamp = Array.make (max 1 nb_cols) (-1) in
  let counts = Array.make nb_rows 0 in
  for bi = 0 to nb_rows - 1 do
    for i = bi * r to min n (bi * r + r) - 1 do
      for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let bc = col_idx.(p) / c in
        if stamp.(bc) <> bi then begin
          stamp.(bc) <- bi;
          counts.(bi) <- counts.(bi) + 1
        end
      done
    done
  done;
  let block_ptr = Array.make (nb_rows + 1) 0 in
  for bi = 0 to nb_rows - 1 do
    block_ptr.(bi + 1) <- block_ptr.(bi) + counts.(bi)
  done;
  let nblocks = block_ptr.(nb_rows) in
  let block_col = Array.make nblocks 0 in
  (* Pass 2: collect each block row's block columns, sort them ascending
     (entries are only sorted within a row, not across the block row's r
     rows), then scatter the values through a position map. *)
  Array.fill stamp 0 (Array.length stamp) (-1);
  let pos = Array.make (max 1 nb_cols) 0 in
  let values = Array.make (nblocks * r * c) 0. in
  for bi = 0 to nb_rows - 1 do
    let base = block_ptr.(bi) in
    let fillp = ref base in
    for i = bi * r to min n (bi * r + r) - 1 do
      for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let bc = col_idx.(p) / c in
        if stamp.(bc) <> bi then begin
          stamp.(bc) <- bi;
          block_col.(!fillp) <- bc;
          incr fillp
        end
      done
    done;
    let len = block_ptr.(bi + 1) - base in
    let slice = Array.sub block_col base len in
    Array.sort compare slice;
    Array.blit slice 0 block_col base len;
    for q = 0 to len - 1 do
      pos.(block_col.(base + q)) <- base + q
    done;
    for i = bi * r to min n (bi * r + r) - 1 do
      let ii = i - (bi * r) in
      for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let col = col_idx.(p) in
        let blk = pos.(col / c) in
        let v = match m.Csr.values with Some sv -> sv.(p) | None -> 1. in
        values.((blk * r * c) + (ii * c) + (col - (col / c * c))) <- v
      done
    done
  done;
  { n_rows = n;
    n_cols = m.Csr.n_cols;
    r;
    c;
    nb_rows;
    nb_cols;
    block_ptr;
    block_col;
    values;
    src = m }

(* Reconstructs the CSR matrix by reading every source entry's value back out
   of its tile slot (structure comes from [src]; a tile cannot distinguish a
   stored zero from padding on its own). The round-trip test exercises the
   whole block layout: a misplaced value lands in the wrong slot and breaks
   the comparison. *)
let to_csr b =
  let src = b.src in
  match src.Csr.values with
  | None -> src
  | Some _ ->
      let row_ptr = src.Csr.row_ptr and col_idx = src.Csr.col_idx in
      let out = Array.make (Csr.nnz src) 0. in
      let r = b.r and c = b.c in
      for bi = 0 to b.nb_rows - 1 do
        let b0 = b.block_ptr.(bi) and b1 = b.block_ptr.(bi + 1) in
        for i = bi * r to min b.n_rows (bi * r + r) - 1 do
          let ii = i - (bi * r) in
          let cur = ref b0 in
          for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
            let bc = col_idx.(p) / c in
            while !cur < b1 && b.block_col.(!cur) < bc do
              incr cur
            done;
            out.(p) <-
              b.values.((!cur * r * c) + (ii * c) + (col_idx.(p) - (bc * c)))
          done
        done
      done;
      Csr.with_values src out

(* SpMM, plus-times, lowered to dense tiles. Within one block row the inner
   structure is BSR's own 4x2 register tile (Dense.matmul uses a 2x4 one):
   four output rows by two feature columns of accumulators, reduction
   running over (block, tile column) — i.e. ascending source column. Real
   entries hit in Csr order; padding adds signed zeros; see the module
   comment for why both leave the bits of [Spmm.run src bd] intact. *)
let spmm ?pool ?ws (m : t) (b : Dense.t) =
  if m.n_cols <> b.Dense.rows then
    invalid_arg "Bsr.spmm: inner dimension mismatch";
  let n = m.n_rows and k = b.Dense.cols in
  let bd = b.Dense.data in
  let r = m.r and c = m.c in
  let rc = r * c in
  let block_ptr = m.block_ptr and block_col = m.block_col and vals = m.values in
  let out = Workspace.alloc_uninit ws (n * k) in
  let body lo hi =
    for bi = lo to hi - 1 do
      let row0 = bi * r in
      let rmax = min r (n - row0) in
      let b0 = Array.unsafe_get block_ptr bi
      and b1 = Array.unsafe_get block_ptr (bi + 1) in
      let ii0 = ref 0 in
      (* full 4-row groups of the tile *)
      while !ii0 + 4 <= rmax do
        let i0 = !ii0 in
        let j = ref 0 in
        while !j + 2 <= k do
          let j0 = !j in
          let acc00 = ref 0. and acc01 = ref 0. in
          let acc10 = ref 0. and acc11 = ref 0. in
          let acc20 = ref 0. and acc21 = ref 0. in
          let acc30 = ref 0. and acc31 = ref 0. in
          for blk = b0 to b1 - 1 do
            let bc = Array.unsafe_get block_col blk in
            let cmax = min c (m.n_cols - (bc * c)) in
            let vbase = (blk * rc) + (i0 * c) in
            let bbase = bc * c * k in
            for cc = 0 to cmax - 1 do
              let bb = bbase + (cc * k) + j0 in
              let e0 = Array.unsafe_get bd bb
              and e1 = Array.unsafe_get bd (bb + 1) in
              let x0 = Array.unsafe_get vals (vbase + cc) in
              let x1 = Array.unsafe_get vals (vbase + c + cc) in
              let x2 = Array.unsafe_get vals (vbase + (2 * c) + cc) in
              let x3 = Array.unsafe_get vals (vbase + (3 * c) + cc) in
              acc00 := !acc00 +. (x0 *. e0);
              acc01 := !acc01 +. (x0 *. e1);
              acc10 := !acc10 +. (x1 *. e0);
              acc11 := !acc11 +. (x1 *. e1);
              acc20 := !acc20 +. (x2 *. e0);
              acc21 := !acc21 +. (x2 *. e1);
              acc30 := !acc30 +. (x3 *. e0);
              acc31 := !acc31 +. (x3 *. e1)
            done
          done;
          let ob = (row0 + i0) * k in
          Array.unsafe_set out (ob + j0) !acc00;
          Array.unsafe_set out (ob + j0 + 1) !acc01;
          Array.unsafe_set out (ob + k + j0) !acc10;
          Array.unsafe_set out (ob + k + j0 + 1) !acc11;
          Array.unsafe_set out (ob + (2 * k) + j0) !acc20;
          Array.unsafe_set out (ob + (2 * k) + j0 + 1) !acc21;
          Array.unsafe_set out (ob + (3 * k) + j0) !acc30;
          Array.unsafe_set out (ob + (3 * k) + j0 + 1) !acc31;
          j := j0 + 2
        done;
        (* odd trailing feature column *)
        while !j < k do
          let j0 = !j in
          let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
          for blk = b0 to b1 - 1 do
            let bc = Array.unsafe_get block_col blk in
            let cmax = min c (m.n_cols - (bc * c)) in
            let vbase = (blk * rc) + (i0 * c) in
            let bbase = bc * c * k in
            for cc = 0 to cmax - 1 do
              let e = Array.unsafe_get bd (bbase + (cc * k) + j0) in
              a0 := !a0 +. (Array.unsafe_get vals (vbase + cc) *. e);
              a1 := !a1 +. (Array.unsafe_get vals (vbase + c + cc) *. e);
              a2 := !a2 +. (Array.unsafe_get vals (vbase + (2 * c) + cc) *. e);
              a3 := !a3 +. (Array.unsafe_get vals (vbase + (3 * c) + cc) *. e)
            done
          done;
          let ob = (row0 + i0) * k in
          Array.unsafe_set out (ob + j0) !a0;
          Array.unsafe_set out (ob + k + j0) !a1;
          Array.unsafe_set out (ob + (2 * k) + j0) !a2;
          Array.unsafe_set out (ob + (3 * k) + j0) !a3;
          incr j
        done;
        ii0 := i0 + 4
      done;
      (* edge rows of a partial tile group: generic one-row loop *)
      for i = !ii0 to rmax - 1 do
        let ob = (row0 + i) * k in
        for j0 = 0 to k - 1 do
          let acc = ref 0. in
          for blk = b0 to b1 - 1 do
            let bc = Array.unsafe_get block_col blk in
            let cmax = min c (m.n_cols - (bc * c)) in
            let vbase = (blk * rc) + (i * c) in
            let bbase = bc * c * k in
            for cc = 0 to cmax - 1 do
              acc :=
                !acc
                +. Array.unsafe_get vals (vbase + cc)
                   *. Array.unsafe_get bd (bbase + (cc * k) + j0)
            done
          done;
          Array.unsafe_set out (ob + j0) !acc
        done
      done
    done
  in
  (* chunk block rows by their stored-block count ([block_ptr] is exactly the
     work prefix: every block costs r*c*k multiply-adds) *)
  Parallel.rows_weighted ?pool ~prefix:block_ptr body;
  Dense.of_flat ~rows:n ~cols:k out

(* SDDMM, plus-times: per block, the full dense r x c tile of dot products
   is computed (each dot reduces over the feature dimension in ascending
   order, exactly like [Sddmm.run]), then only the slots backed by a source
   entry are scattered into the source CSR value layout — discarded padding
   dots cannot perturb the output. *)
let sddmm ?pool ?ws (m : t) (a : Dense.t) (b : Dense.t) =
  if a.Dense.rows <> m.n_rows then
    invalid_arg "Bsr.sddmm: A row count must match mask rows";
  if b.Dense.cols <> m.n_cols then
    invalid_arg "Bsr.sddmm: B column count must match mask cols";
  if a.Dense.cols <> b.Dense.rows then
    invalid_arg "Bsr.sddmm: inner dimension mismatch";
  let k = a.Dense.cols in
  let src = m.src in
  let row_ptr = src.Csr.row_ptr and col_idx = src.Csr.col_idx in
  let out = Workspace.alloc_uninit ws (Csr.nnz src) in
  let ad = a.Dense.data and bd = b.Dense.data and bn = b.Dense.cols in
  let r = m.r and c = m.c in
  let body lo hi =
    let tile = Array.make (r * c) 0. in
    let cursor = Array.make r 0 in
    for bi = lo to hi - 1 do
      let row0 = bi * r in
      let rmax = min r (m.n_rows - row0) in
      for ii = 0 to rmax - 1 do
        cursor.(ii) <- row_ptr.(row0 + ii)
      done;
      for blk = m.block_ptr.(bi) to m.block_ptr.(bi + 1) - 1 do
        let bc = m.block_col.(blk) in
        let cmax = min c (m.n_cols - (bc * c)) in
        (* dense tile of dot products, padding slots included *)
        for ii = 0 to rmax - 1 do
          let abase = (row0 + ii) * k in
          for cc = 0 to cmax - 1 do
            let col = (bc * c) + cc in
            let acc = ref 0. in
            for q = 0 to k - 1 do
              acc :=
                !acc
                +. (Array.unsafe_get ad (abase + q)
                    *. Array.unsafe_get bd ((q * bn) + col))
            done;
            tile.((ii * c) + cc) <- !acc
          done
        done;
        (* scatter the entry-backed slots into the source value layout *)
        let climit = (bc + 1) * c in
        for ii = 0 to rmax - 1 do
          let i = row0 + ii in
          let p = ref cursor.(ii) in
          while !p < row_ptr.(i + 1) && col_idx.(!p) < climit do
            out.(!p) <-
              Csr.value src !p *. tile.((ii * c) + (col_idx.(!p) - (bc * c)));
            incr p
          done;
          cursor.(ii) <- !p
        done
      done
    done
  in
  Parallel.rows_weighted ?pool ~prefix:m.block_ptr body;
  Csr.with_values src out

(* Rank-1 SDDMM gains nothing from tiles (k = 1): delegate to the Csr
   kernel on the stored source — trivially bitwise. *)
let rank1 ?pool ?ws (m : t) d_left d_right =
  Sddmm.rank1 ?pool ?ws m.src d_left d_right

let pp ppf b =
  Format.fprintf ppf "bsr %dx%d nnz=%d block=%dx%d blocks=%d fill=%.2f"
    b.n_rows b.n_cols (nnz b) b.r b.c (n_blocks b) (fill b)
