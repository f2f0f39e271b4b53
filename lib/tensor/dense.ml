type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Dense.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let init rows cols f =
  if rows < 0 || cols < 0 then invalid_arg "Dense.init: negative dimension";
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    let base = i * cols in
    for j = 0 to cols - 1 do
      data.(base + j) <- f i j
    done
  done;
  { rows; cols; data }

let zeros rows cols = create rows cols 0.
let ones rows cols = create rows cols 1.
let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Dense.of_arrays: no rows";
  let cols = Array.length a.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Dense.of_arrays: ragged rows")
    a;
  init rows cols (fun i j -> a.(i).(j))

let of_flat ~rows ~cols data =
  if Array.length data <> rows * cols then invalid_arg "Dense.of_flat: size mismatch";
  { rows; cols; data }

(* SplitMix64-style deterministic generator so tests and benches reproduce
   across platforms regardless of the stdlib Random implementation. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let uniform_of_state state =
  (* 53 random bits -> [0, 1) *)
  let bits = Int64.shift_right_logical (splitmix_next state) 11 in
  Int64.to_float bits /. 9007199254740992.

let random ?(seed = 0) ?(scale = 1.) rows cols =
  let state = ref (Int64.of_int (seed + 0x1234567)) in
  init rows cols (fun _ _ -> scale *. ((2. *. uniform_of_state state) -. 1.))

let glorot ?(seed = 0) rows cols =
  let bound = sqrt (6. /. float_of_int (rows + cols)) in
  random ~seed ~scale:bound rows cols

let copy m = { m with data = Array.copy m.data }

let get m i j = m.data.((i * m.cols) + j)
let set m i j x = m.data.((i * m.cols) + j) <- x
let dims m = (m.rows, m.cols)
let row m i = Array.sub m.data (i * m.cols) m.cols
let col m j = Array.init m.rows (fun i -> get m i j)
let to_arrays m = Array.init m.rows (fun i -> row m i)

(* ---- branch-free selects and row epilogues ----

   [if x > 0. then x else 0.] on data of random sign mispredicts about
   half the time, and the relu is then bound by the branch unit. Instead
   each kernel stores the candidate results in a pair of table slots and
   loads the one [Bool.to_int (x > 0.)] picks: the comparison compiles to
   a flag set, not a jump. The table is scratch written per element, so
   every parallel chunk allocates its own and no two domains share one. Each
   candidate is the branch's own expression, so the selected value is
   bitwise the one the branch took, for every input: NaN is not [> 0.] and
   takes the else-value, as before. *)

(* Relu two elements per step, each with its own [0.; x] pair in the
   4-slot table [t], so the two selects do not wait on one slot. *)
let relu_span (t : float array) (src : float array) (dst : float array) lo hi =
  Array.unsafe_set t 0 0.;
  Array.unsafe_set t 2 0.;
  let p = ref lo in
  while !p + 2 <= hi do
    let q = !p in
    let x0 = Array.unsafe_get src q and x1 = Array.unsafe_get src (q + 1) in
    Array.unsafe_set t 1 x0;
    Array.unsafe_set t 3 x1;
    Array.unsafe_set dst q (Array.unsafe_get t (Bool.to_int (x0 > 0.)));
    Array.unsafe_set dst (q + 1) (Array.unsafe_get t (2 + Bool.to_int (x1 > 0.)));
    p := q + 2
  done;
  if !p < hi then begin
    let x = Array.unsafe_get src !p in
    Array.unsafe_set t 1 x;
    Array.unsafe_set dst !p (Array.unsafe_get t (Bool.to_int (x > 0.)))
  end

(* [relu_span] of [di *. x], in place: GCN's [RowBcast] then [Map[relu]]
   in one pass over the row. *)
let scale_relu_span (t : float array) di (out : float array) lo hi =
  Array.unsafe_set t 0 0.;
  Array.unsafe_set t 2 0.;
  let p = ref lo in
  while !p + 2 <= hi do
    let q = !p in
    let x0 = di *. Array.unsafe_get out q
    and x1 = di *. Array.unsafe_get out (q + 1) in
    Array.unsafe_set t 1 x0;
    Array.unsafe_set t 3 x1;
    Array.unsafe_set out q (Array.unsafe_get t (Bool.to_int (x0 > 0.)));
    Array.unsafe_set out (q + 1) (Array.unsafe_get t (2 + Bool.to_int (x1 > 0.)));
    p := q + 2
  done;
  if !p < hi then begin
    let x = di *. Array.unsafe_get out !p in
    Array.unsafe_set t 1 x;
    Array.unsafe_set out !p (Array.unsafe_get t (Bool.to_int (x > 0.)))
  end

(* [row_broadcast]'s [di *. x], in place, four elements per step *)
let scale_span di (out : float array) lo hi =
  let p = ref lo in
  while !p + 4 <= hi do
    let q = !p in
    Array.unsafe_set out q (di *. Array.unsafe_get out q);
    Array.unsafe_set out (q + 1) (di *. Array.unsafe_get out (q + 1));
    Array.unsafe_set out (q + 2) (di *. Array.unsafe_get out (q + 2));
    Array.unsafe_set out (q + 3) (di *. Array.unsafe_get out (q + 3));
    p := q + 4
  done;
  for q = !p to hi - 1 do
    Array.unsafe_set out q (di *. Array.unsafe_get out q)
  done

(* The table holds the multiplier: [1. *. x] is [x] for every [x > 0.] (no
   NaN gets there), and the else value is the branchy kernel's own
   [slope *. x]. *)
let leaky_span (t : float array) slope (src : float array) (dst : float array) lo hi =
  Array.unsafe_set t 0 slope;
  Array.unsafe_set t 1 1.;
  for i = lo to hi - 1 do
    let x = Array.unsafe_get src i in
    Array.unsafe_set dst i (Array.unsafe_get t (Bool.to_int (x > 0.)) *. x)
  done

let sigmoid_span (src : float array) (dst : float array) lo hi =
  for i = lo to hi - 1 do
    let x = Array.unsafe_get src i in
    Array.unsafe_set dst i (1. /. (1. +. exp (-.x)))
  done

type epilogue_op =
  | Scale_rows of Vector.t
  | Relu
  | Leaky_relu of float
  | Sigmoid

type epilogue = epilogue_op list

type epilogue_state = { ops : epilogue; table : float array }

(* [[]] allocates nothing: with no op the table is never written, so the
   one shared empty state is safe on every domain *)
let no_epilogue = { ops = []; table = [||] }

let epilogue_start = function
  | [] -> no_epilogue
  | ops -> { ops; table = Array.create_float 4 }

let check_epilogue ~who ~rows ep =
  List.iter
    (function
      | Scale_rows d when Array.length d <> rows ->
          invalid_arg (who ^ ": epilogue row scale dimension mismatch")
      | Scale_rows _ | Relu | Leaky_relu _ | Sigmoid -> ())
    ep

(* a direct recursion, not [List.iter]: a closure per row would allocate.
   A scale followed by a relu runs as one pass. *)
let rec ops_row table ops (out : float array) row lo hi =
  match ops with
  | [] -> ()
  | Scale_rows d :: Relu :: rest ->
      scale_relu_span table (Array.unsafe_get d row) out lo hi;
      ops_row table rest out row lo hi
  | op :: rest ->
      (match op with
      | Scale_rows d -> scale_span (Array.unsafe_get d row) out lo hi
      | Relu -> relu_span table out out lo hi
      | Leaky_relu slope -> leaky_span table slope out out lo hi
      | Sigmoid -> sigmoid_span out out lo hi);
      ops_row table rest out row lo hi

let epilogue_row st out ~row ~lo ~hi = ops_row st.table st.ops out row lo hi

(* Every GEMM path below applies its epilogue to an output row (or, in the
   blocked kernel, a row's column block) right after the row's last store,
   while it is still in cache. *)
let unblocked ~ep ?pool ?ws a b =
  let m = a.rows and k = a.cols and n = b.cols in
  let out = Workspace.alloc ws (m * n) in
  let ad = a.data and bd = b.data in
  let fused = ep <> [] in
  (* i-k-j loop order: the inner loop streams over contiguous rows of B and
     the output, which is the cache-friendly order for row-major storage.
     Parallel path: output rows are partitioned statically, each computed
     exactly as in the sequential loop, so results are bitwise identical. *)
  Parallel.rows ?pool ~n:m (fun lo hi ->
      let st = epilogue_start ep in
      for i = lo to hi - 1 do
        let arow = i * k and orow = i * n in
        for p = 0 to k - 1 do
          let av = ad.(arow + p) in
          if av <> 0. then begin
            let brow = p * n in
            for j = 0 to n - 1 do
              out.(orow + j) <- out.(orow + j) +. (av *. bd.(brow + j))
            done
          end
        done;
        if fused then epilogue_row st out ~row:i ~lo:orow ~hi:(orow + n)
      done);
  { rows = m; cols = n; data = out }

let matmul_unblocked ?pool ?ws a b =
  if a.cols <> b.rows then invalid_arg "Dense.matmul: inner dimension mismatch";
  unblocked ~ep:[] ?pool ?ws a b

(* ---- cache-blocked GEMM ----

   GEBP structure: B is packed one column block at a time into an
   [nr]-interleaved panel (micro-panel mp holds columns [j0 + mp*nr ..) in
   k-major order, so the micro-kernel streams it contiguously), and a
   register-tiled [mr x nr] micro-kernel accumulates over the full K
   extent. Because every output element still accumulates its products in
   ascending-k order — registers instead of read-modify-write on [out],
   but the same additions in the same order — the result is bitwise
   identical to {!matmul_unblocked} on finite inputs, for any block sizes
   and any row partition (so the [?pool] path stays deterministic too).

   A's rows are already contiguous in row-major storage, so only B needs
   packing. The panel (at most [panel_words] floats, sized to sit in L2
   while each k-major micro-panel walks through L1) is the only scratch;
   with [?ws] it comes from the workspace, making steady-state GEMM
   allocation-free apart from the output itself. *)

let mr = 2
let nr = 4
let panel_words = 32_768 (* 256 KB of packed B per column block *)

(* Specialized full 2x4 tile: eight accumulators in local float refs, which
   ocamlopt keeps unboxed in registers because they never escape. The four
   B values are loaded once per k and reused across both rows. Each output
   starts at +0.0 and adds its products in ascending k. The tile shape was
   chosen by measurement: with float-ref accumulators throughout, 2x4 ran
   ~10% faster than 4x2 and ~25% faster than 4x4 on the executor's shapes
   (m in 4096-9216, k and n in 32-256) on an x86-64 host. *)
let micro_2x4 ~ad ~panel ~out ~k ~n ~i0 ~pb ~jbase =
  let a0 = i0 * k and a1 = (i0 + 1) * k in
  let c00 = ref 0. and c01 = ref 0. and c02 = ref 0. and c03 = ref 0. in
  let c10 = ref 0. and c11 = ref 0. and c12 = ref 0. and c13 = ref 0. in
  for kk = 0 to k - 1 do
    let pk = pb + (kk * nr) in
    let b0 = Array.unsafe_get panel pk and b1 = Array.unsafe_get panel (pk + 1) in
    let b2 = Array.unsafe_get panel (pk + 2) and b3 = Array.unsafe_get panel (pk + 3) in
    let x0 = Array.unsafe_get ad (a0 + kk) in
    c00 := !c00 +. (x0 *. b0);
    c01 := !c01 +. (x0 *. b1);
    c02 := !c02 +. (x0 *. b2);
    c03 := !c03 +. (x0 *. b3);
    let x1 = Array.unsafe_get ad (a1 + kk) in
    c10 := !c10 +. (x1 *. b0);
    c11 := !c11 +. (x1 *. b1);
    c12 := !c12 +. (x1 *. b2);
    c13 := !c13 +. (x1 *. b3)
  done;
  let o0 = (i0 * n) + jbase in
  Array.unsafe_set out o0 !c00;
  Array.unsafe_set out (o0 + 1) !c01;
  Array.unsafe_set out (o0 + 2) !c02;
  Array.unsafe_set out (o0 + 3) !c03;
  let o1 = o0 + n in
  Array.unsafe_set out o1 !c10;
  Array.unsafe_set out (o1 + 1) !c11;
  Array.unsafe_set out (o1 + 2) !c12;
  Array.unsafe_set out (o1 + 3) !c13

(* Edge tiles ([cb < nr] tail columns, or the last row of an odd row range)
   run one output column at a time: a 2x1 or 1x1 kernel whose accumulators
   are again local float refs, reading column [c] of the k-major micro-panel
   at stride [nr]. Each output still starts at +0.0 and adds its products in
   ascending k, so edge tiles are bitwise the same as full ones. Narrow
   outputs such as train's 5-class logits (one 4-wide tile plus a tail
   column per row pair) would otherwise read-modify-write a scratch array
   per multiply-add in the tail column. *)
let micro_2x1 ~ad ~panel ~out ~k ~n ~i0 ~pb ~j ~c =
  let a0 = i0 * k and a1 = (i0 + 1) * k in
  let c0 = ref 0. and c1 = ref 0. in
  for kk = 0 to k - 1 do
    let b = Array.unsafe_get panel (pb + (kk * nr) + c) in
    c0 := !c0 +. (Array.unsafe_get ad (a0 + kk) *. b);
    c1 := !c1 +. (Array.unsafe_get ad (a1 + kk) *. b)
  done;
  Array.unsafe_set out ((i0 * n) + j) !c0;
  Array.unsafe_set out (((i0 + 1) * n) + j) !c1

let micro_1x1 ~ad ~panel ~out ~k ~n ~i0 ~pb ~j ~c =
  let a0 = i0 * k in
  let c0 = ref 0. in
  for kk = 0 to k - 1 do
    c0 :=
      !c0 +. (Array.unsafe_get ad (a0 + kk) *. Array.unsafe_get panel (pb + (kk * nr) + c))
  done;
  Array.unsafe_set out ((i0 * n) + j) !c0

let blocked_rows ~ad ~bd ~out ~panel ~st ~m:_ ~k ~n lo hi =
  let nc =
    let by_budget = panel_words / max 1 k in
    max nr (min n (by_budget - (by_budget mod nr)))
  in
  let j0 = ref 0 in
  while !j0 < n do
    let ncb = min nc (n - !j0) in
    let n_micro = (ncb + nr - 1) / nr in
    (* pack columns [j0, j0+ncb) of B; padding lanes are never read because
       the micro-kernels only touch [cb] real columns *)
    for mp = 0 to n_micro - 1 do
      let jb = !j0 + (mp * nr) in
      let cb = min nr (!j0 + ncb - jb) in
      let base = mp * k * nr in
      for kk = 0 to k - 1 do
        let brow = (kk * n) + jb in
        let pk = base + (kk * nr) in
        for c = 0 to cb - 1 do
          Array.unsafe_set panel (pk + c) (Array.unsafe_get bd (brow + c))
        done
      done
    done;
    let i0 = ref lo in
    while !i0 < hi do
      let mb = min mr (hi - !i0) in
      for mp = 0 to n_micro - 1 do
        let jbase = !j0 + (mp * nr) in
        let cb = min nr (!j0 + ncb - jbase) in
        let pb = mp * k * nr in
        if mb = mr && cb = nr then
          micro_2x4 ~ad ~panel ~out ~k ~n ~i0:!i0 ~pb ~jbase
        else if mb = mr then
          for c = 0 to cb - 1 do
            micro_2x1 ~ad ~panel ~out ~k ~n ~i0:!i0 ~pb ~j:(jbase + c) ~c
          done
        else
          for c = 0 to cb - 1 do
            micro_1x1 ~ad ~panel ~out ~k ~n ~i0:!i0 ~pb ~j:(jbase + c) ~c
          done
      done;
      (* each output is stored once, by its column block's tile *)
      if st.ops <> [] then
        for r = !i0 to !i0 + mb - 1 do
          let o = (r * n) + !j0 in
          epilogue_row st out ~row:r ~lo:o ~hi:(o + ncb)
        done;
      i0 := !i0 + mb
    done;
    j0 := !j0 + ncb
  done

(* Below this flop count the packing overhead outweighs the locality win and
   the streaming kernel is used instead. *)
let blocked_flop_threshold = 32_768

(* Narrow outputs (1 to [nr - 1] columns, e.g. the n x k . k x 1 products
   of GAT's edge scores): one row dot per output row, with up to three
   accumulators in local float refs (unboxed, in registers) instead of
   [matmul_unblocked]'s read-modify-write of [out] per (p, j). Same [av <> 0.]
   skip, same ascending-[p] order from +0.0, so the result is bitwise that of
   [matmul_unblocked]. The matrix-vector case gets its own loop, free of the
   per-[p] width tests. *)
let matmul_narrow ~ep ?pool ?ws a b =
  let m = a.rows and k = a.cols and n = b.cols in
  let out = Workspace.alloc_uninit ws (m * n) in
  let ad = a.data and bd = b.data in
  let fused = ep <> [] in
  Parallel.rows ?pool ~n:m (fun lo hi ->
      let st = epilogue_start ep in
      for i = lo to hi - 1 do
        let arow = i * k in
        if n = 1 then begin
          let c0 = ref 0. in
          for p = 0 to k - 1 do
            let av = Array.unsafe_get ad (arow + p) in
            if av <> 0. then c0 := !c0 +. (av *. Array.unsafe_get bd p)
          done;
          Array.unsafe_set out i !c0
        end
        else begin
          let c0 = ref 0. and c1 = ref 0. and c2 = ref 0. in
          for p = 0 to k - 1 do
            let av = Array.unsafe_get ad (arow + p) in
            if av <> 0. then begin
              let brow = p * n in
              c0 := !c0 +. (av *. Array.unsafe_get bd brow);
              c1 := !c1 +. (av *. Array.unsafe_get bd (brow + 1));
              if n = 3 then c2 := !c2 +. (av *. Array.unsafe_get bd (brow + 2))
            end
          done;
          let orow = i * n in
          Array.unsafe_set out orow !c0;
          Array.unsafe_set out (orow + 1) !c1;
          if n = 3 then Array.unsafe_set out (orow + 2) !c2
        end;
        if fused then epilogue_row st out ~row:i ~lo:(i * n) ~hi:((i + 1) * n)
      done);
  { rows = m; cols = n; data = out }

let matmul ?pool ?ws ?(epilogue = []) a b =
  if a.cols <> b.rows then invalid_arg "Dense.matmul: inner dimension mismatch";
  let m = a.rows and k = a.cols and n = b.cols in
  let ep = epilogue in
  check_epilogue ~who:"Dense.matmul" ~rows:m ep;
  if n >= 1 && n < nr then matmul_narrow ~ep ?pool ?ws a b
  else if m * k * n < blocked_flop_threshold || k < 8 then
    unblocked ~ep ?pool ?ws a b
  else begin
    let out = Workspace.alloc_uninit ws (m * n) in
    let ad = a.data and bd = b.data in
    let panel_len =
      let nc =
        let by_budget = panel_words / max 1 k in
        max nr (min n (by_budget - (by_budget mod nr)))
      in
      (* interleaved panels round the column block up to a multiple of nr *)
      k * (((min n nc + nr - 1) / nr) * nr)
    in
    (match pool with
    | None ->
        let panel = Workspace.alloc_uninit ws panel_len in
        blocked_rows ~ad ~bd ~out ~panel ~st:(epilogue_start ep) ~m ~k ~n 0 m;
        Workspace.give_back ws panel
    | Some _ ->
        (* each chunk packs its own panel: the workspace is not domain-safe,
           so parallel scratch comes from the regular allocator *)
        Parallel.rows ?pool ~n:m (fun lo hi ->
            let panel = Array.create_float panel_len in
            blocked_rows ~ad ~bd ~out ~panel ~st:(epilogue_start ep) ~m ~k ~n
              lo hi));
    { rows = m; cols = n; data = out }
  end

let matmul_gen ?pool ?ws (sr : Semiring.t) a b =
  if Semiring.is_plus_times sr then matmul ?pool ?ws a b
  else begin
    if a.cols <> b.rows then invalid_arg "Dense.matmul_gen: inner dimension mismatch";
    let m = a.rows and k = a.cols and n = b.cols in
    let out = Workspace.alloc_fill ws sr.zero (m * n) in
    let ad = a.data and bd = b.data in
    Parallel.rows ?pool ~n:m (fun lo hi ->
        for i = lo to hi - 1 do
          let arow = i * k and orow = i * n in
          for p = 0 to k - 1 do
            let av = ad.(arow + p) in
            let brow = p * n in
            for j = 0 to n - 1 do
              out.(orow + j) <- sr.add out.(orow + j) (sr.mul av bd.(brow + j))
            done
          done
        done);
    { rows = m; cols = n; data = out }
  end

(* ---- transposed-operand GEMM ----

   The reverse pass's weight gradient A^T B, read in place instead of
   through a copied transpose of A. It keeps the contract of every [matmul]
   path: each output starts at +0.0 and adds its products in ascending row
   order, so on finite inputs it is bitwise [matmul (transpose a) b]. (A
   skipped zero product, as in [matmul_unblocked], never changes an
   accumulator that starts at +0.0.) *)

(* Rows of A (and B) per block of [matmul_tn]: a 64 x k_in block of A stays
   in L1 while every output tile walks it. *)
let tn_rows = 64

(* Output rows [i0, i0 + 1], columns [j, j + 3] of [A^T B], summed over the
   block's rows [r0, r1) onto the accumulators the previous block stored. *)
let tn_2x4 ~ad ~bd ~out ~m ~n ~r0 ~r1 ~i0 ~j =
  let o0 = (i0 * n) + j in
  let o1 = o0 + n in
  let c00 = ref (Array.unsafe_get out o0) and c01 = ref (Array.unsafe_get out (o0 + 1)) in
  let c02 = ref (Array.unsafe_get out (o0 + 2)) and c03 = ref (Array.unsafe_get out (o0 + 3)) in
  let c10 = ref (Array.unsafe_get out o1) and c11 = ref (Array.unsafe_get out (o1 + 1)) in
  let c12 = ref (Array.unsafe_get out (o1 + 2)) and c13 = ref (Array.unsafe_get out (o1 + 3)) in
  for r = r0 to r1 - 1 do
    let a = (r * m) + i0 and b = (r * n) + j in
    let b0 = Array.unsafe_get bd b and b1 = Array.unsafe_get bd (b + 1) in
    let b2 = Array.unsafe_get bd (b + 2) and b3 = Array.unsafe_get bd (b + 3) in
    let x0 = Array.unsafe_get ad a in
    c00 := !c00 +. (x0 *. b0);
    c01 := !c01 +. (x0 *. b1);
    c02 := !c02 +. (x0 *. b2);
    c03 := !c03 +. (x0 *. b3);
    let x1 = Array.unsafe_get ad (a + 1) in
    c10 := !c10 +. (x1 *. b0);
    c11 := !c11 +. (x1 *. b1);
    c12 := !c12 +. (x1 *. b2);
    c13 := !c13 +. (x1 *. b3)
  done;
  Array.unsafe_set out o0 !c00;
  Array.unsafe_set out (o0 + 1) !c01;
  Array.unsafe_set out (o0 + 2) !c02;
  Array.unsafe_set out (o0 + 3) !c03;
  Array.unsafe_set out o1 !c10;
  Array.unsafe_set out (o1 + 1) !c11;
  Array.unsafe_set out (o1 + 2) !c12;
  Array.unsafe_set out (o1 + 3) !c13

(* The [n mod 4] tail columns: output rows [i0, i0 + 1], column [j]. *)
let tn_2x1 ~ad ~bd ~out ~m ~n ~r0 ~r1 ~i0 ~j =
  let o0 = (i0 * n) + j in
  let c0 = ref (Array.unsafe_get out o0) and c1 = ref (Array.unsafe_get out (o0 + n)) in
  for r = r0 to r1 - 1 do
    let a = (r * m) + i0 in
    let b = Array.unsafe_get bd ((r * n) + j) in
    c0 := !c0 +. (Array.unsafe_get ad a *. b);
    c1 := !c1 +. (Array.unsafe_get ad (a + 1) *. b)
  done;
  Array.unsafe_set out o0 !c0;
  Array.unsafe_set out (o0 + n) !c1

(* The last output row when A has an odd column count. *)
let tn_1x1 ~ad ~bd ~out ~m ~n ~r0 ~r1 ~i0 ~j =
  let o = (i0 * n) + j in
  let c = ref (Array.unsafe_get out o) in
  for r = r0 to r1 - 1 do
    c := !c +. (Array.unsafe_get ad ((r * m) + i0) *. Array.unsafe_get bd ((r * n) + j))
  done;
  Array.unsafe_set out o !c

let matmul_tn a b =
  if a.rows <> b.rows then invalid_arg "Dense.matmul_tn: row count mismatch";
  let rows = a.rows and m = a.cols and n = b.cols in
  let out = Array.make (m * n) 0. in
  let ad = a.data and bd = b.data in
  let r0 = ref 0 in
  while !r0 < rows do
    let r0v = !r0 in
    let r1 = min rows (r0v + tn_rows) in
    let i0 = ref 0 in
    while !i0 + 1 < m do
      let j = ref 0 in
      while !j + 4 <= n do
        tn_2x4 ~ad ~bd ~out ~m ~n ~r0:r0v ~r1 ~i0:!i0 ~j:!j;
        j := !j + 4
      done;
      for j = !j to n - 1 do
        tn_2x1 ~ad ~bd ~out ~m ~n ~r0:r0v ~r1 ~i0:!i0 ~j
      done;
      i0 := !i0 + 2
    done;
    if !i0 < m then
      for j = 0 to n - 1 do
        tn_1x1 ~ad ~bd ~out ~m ~n ~r0:r0v ~r1 ~i0:!i0 ~j
      done;
    r0 := r1
  done;
  { rows = m; cols = n; data = out }

(* A direct loop: [init] with a [get] closure would box every element. *)
let transpose m =
  let rows = m.rows and cols = m.cols in
  let src = m.data in
  let out = Array.create_float (rows * cols) in
  for i = 0 to rows - 1 do
    let base = i * cols in
    for j = 0 to cols - 1 do
      Array.unsafe_set out ((j * rows) + i) (Array.unsafe_get src (base + j))
    done
  done;
  { rows = cols; cols = rows; data = out }

let map2 ?pool ?ws f a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Dense.map2: shape mismatch";
  let len = Array.length a.data in
  let out = Workspace.alloc_uninit ws len in
  let ad = a.data and bd = b.data in
  Parallel.rows ?pool ~n:len (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- f ad.(i) bd.(i)
      done);
  { a with data = out }

let map ?pool ?ws f m =
  let len = Array.length m.data in
  let out = Workspace.alloc_uninit ws len in
  let src = m.data in
  Parallel.rows ?pool ~n:len (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- f src.(i)
      done);
  { m with data = out }

(* The arithmetic elementwise ops get direct loops rather than going through
   [map2 f]: calling an unknown closure boxes every float argument and
   result, which costs ~4 minor-heap words per element — the dominant
   per-iteration allocation once outputs come from a workspace. *)

let binop ?pool ?ws op a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg "Dense.map2: shape mismatch";
  let len = Array.length a.data in
  let out = Workspace.alloc_uninit ws len in
  let ad = a.data and bd = b.data in
  Parallel.rows ?pool ~n:len (fun lo hi ->
      match op with
      | `Add ->
          for i = lo to hi - 1 do
            Array.unsafe_set out i
              (Array.unsafe_get ad i +. Array.unsafe_get bd i)
          done
      | `Sub ->
          for i = lo to hi - 1 do
            Array.unsafe_set out i
              (Array.unsafe_get ad i -. Array.unsafe_get bd i)
          done
      | `Mul ->
          for i = lo to hi - 1 do
            Array.unsafe_set out i
              (Array.unsafe_get ad i *. Array.unsafe_get bd i)
          done);
  { a with data = out }

let add ?pool ?ws a b = binop ?pool ?ws `Add a b
let sub ?pool ?ws a b = binop ?pool ?ws `Sub a b
let mul_elementwise ?pool ?ws a b = binop ?pool ?ws `Mul a b

let scale ?pool ?ws s m =
  let len = Array.length m.data in
  let out = Workspace.alloc_uninit ws len in
  let src = m.data in
  Parallel.rows ?pool ~n:len (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set out i (s *. Array.unsafe_get src i)
      done);
  { m with data = out }

let add_row_vector m v =
  if Array.length v <> m.cols then invalid_arg "Dense.add_row_vector: dimension mismatch";
  init m.rows m.cols (fun i j -> get m i j +. v.(j))

let row_broadcast ?pool ?ws d m =
  if Array.length d <> m.rows then invalid_arg "Dense.row_broadcast: dimension mismatch";
  let k = m.cols in
  let out = Workspace.alloc_uninit ws (m.rows * k) in
  let src = m.data in
  Parallel.rows ?pool ~n:m.rows (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * k in
        let di = d.(i) in
        for j = 0 to k - 1 do
          out.(base + j) <- di *. src.(base + j)
        done
      done);
  { m with data = out }

let col_broadcast ?pool ?ws m d =
  if Array.length d <> m.cols then invalid_arg "Dense.col_broadcast: dimension mismatch";
  let k = m.cols in
  let out = Workspace.alloc_uninit ws (m.rows * k) in
  let src = m.data in
  Parallel.rows ?pool ~n:m.rows (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * k in
        for j = 0 to k - 1 do
          out.(base + j) <- src.(base + j) *. d.(j)
        done
      done);
  { m with data = out }

let concat_cols parts =
  match parts with
  | [] -> invalid_arg "Dense.concat_cols: empty list"
  | first :: _ ->
      let rows = first.rows in
      List.iter
        (fun m ->
          if m.rows <> rows then invalid_arg "Dense.concat_cols: row count mismatch")
        parts;
      let total = List.fold_left (fun acc m -> acc + m.cols) 0 parts in
      let out = create rows total 0. in
      let offset = ref 0 in
      List.iter
        (fun m ->
          for i = 0 to rows - 1 do
            Array.blit m.data (i * m.cols) out.data ((i * total) + !offset) m.cols
          done;
          offset := !offset + m.cols)
        parts;
      out

let split_cols m parts =
  if parts <= 0 || m.cols mod parts <> 0 then
    invalid_arg "Dense.split_cols: width not divisible by parts";
  let w = m.cols / parts in
  List.init parts (fun p -> init m.rows w (fun i j -> get m i ((p * w) + j)))

(* Direct loops for the same reason as [binop]: a closure call per element
   boxes its float argument and result. Relu and leaky relu are the
   branch-free selects above, each chunk with its own table. *)
let unop ?pool ?ws op m =
  let len = Array.length m.data in
  let out = Workspace.alloc_uninit ws len in
  let src = m.data in
  Parallel.rows ?pool ~n:len (fun lo hi ->
      match op with
      | `Relu -> relu_span (Array.create_float 4) src out lo hi
      | `Leaky slope -> leaky_span (Array.create_float 2) slope src out lo hi
      | `Sigmoid -> sigmoid_span src out lo hi);
  { m with data = out }

let relu ?pool ?ws m = unop ?pool ?ws `Relu m
let sigmoid ?pool ?ws m = unop ?pool ?ws `Sigmoid m
let leaky_relu ?pool ?ws ?(slope = 0.2) m = unop ?pool ?ws (`Leaky slope) m

let softmax_rows ?pool ?ws m =
  let src = m.data in
  let out = Workspace.alloc_uninit ws (Array.length src) in
  Parallel.rows ?pool ~n:m.rows (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * m.cols in
        let mx = ref neg_infinity in
        for j = 0 to m.cols - 1 do
          if src.(base + j) > !mx then mx := src.(base + j)
        done;
        let total = ref 0. in
        for j = 0 to m.cols - 1 do
          let e = exp (src.(base + j) -. !mx) in
          out.(base + j) <- e;
          total := !total +. e
        done;
        for j = 0 to m.cols - 1 do
          out.(base + j) <- out.(base + j) /. !total
        done
      done);
  { m with data = out }

let log_softmax_rows ?pool ?ws m =
  let src = m.data in
  let out = Workspace.alloc_uninit ws (Array.length src) in
  Parallel.rows ?pool ~n:m.rows (fun lo hi ->
      for i = lo to hi - 1 do
        let base = i * m.cols in
        let mx = ref neg_infinity in
        for j = 0 to m.cols - 1 do
          if src.(base + j) > !mx then mx := src.(base + j)
        done;
        let total = ref 0. in
        for j = 0 to m.cols - 1 do
          total := !total +. exp (src.(base + j) -. !mx)
        done;
        let log_z = !mx +. log !total in
        for j = 0 to m.cols - 1 do
          out.(base + j) <- src.(base + j) -. log_z
        done
      done);
  { m with data = out }

let sum m = Array.fold_left ( +. ) 0. m.data

let frobenius m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

let row_sums m =
  Vector.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. get m i j
      done;
      !acc)

let col_sums m =
  let acc = Vector.zeros m.cols in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      acc.(j) <- acc.(j) +. get m i j
    done
  done;
  acc

let argmax_rows m =
  Array.init m.rows (fun i ->
      let best = ref 0 in
      for j = 1 to m.cols - 1 do
        if get m i j > get m i !best then best := j
      done;
      !best)

let max_abs_diff a b =
  if a.rows <> b.rows || a.cols <> b.cols then infinity
  else begin
    let d = ref 0. in
    for i = 0 to Array.length a.data - 1 do
      let x = Float.abs (a.data.(i) -. b.data.(i)) in
      if x > !d then d := x
    done;
    !d
  end

let equal_approx ?(eps = 1e-8) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       for i = 0 to Array.length a.data - 1 do
         let d = Float.abs (a.data.(i) -. b.data.(i)) in
         let bound =
           eps *. Float.max 1. (Float.max (Float.abs a.data.(i)) (Float.abs b.data.(i)))
         in
         if d > bound then ok := false
       done;
       !ok
     end

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to Stdlib.min (m.rows - 1) 9 do
    Format.fprintf ppf "|";
    for j = 0 to Stdlib.min (m.cols - 1) 9 do
      Format.fprintf ppf " %8.4f" (get m i j)
    done;
    if m.cols > 10 then Format.fprintf ppf " ...";
    Format.fprintf ppf " |@,"
  done;
  if m.rows > 10 then Format.fprintf ppf "... (%dx%d)@," m.rows m.cols;
  Format.fprintf ppf "@]"
