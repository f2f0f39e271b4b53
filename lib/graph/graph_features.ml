(* The input featurizer's graph statistics. [extract] runs on every
   training mini-batch (on the loader domain) and on every inference input,
   so it is a few direct loops over [row_ptr] and [col_idx]: no closure per
   stored entry (which boxes its value), no polymorphic compare, no float
   copy of the degrees. The Gini coefficient reads the ascending degree
   sequence from a counting sort of the integer degrees, which visits the
   same sequence a sort of the float degrees would. Every statistic takes the
   same floating-point operations in the same order as the straightforward
   definition (sort, fold, [Vector.std]), so the output is bitwise that of
   it; test/test_train_path.ml keeps that definition as its reference. *)

module Csr = Granii_sparse.Csr

type t = {
  n_nodes : float;
  nnz : float;
  density : float;
  avg_degree : float;
  max_degree : float;
  min_degree : float;
  degree_cv : float;
  degree_gini : float;
  skew_fraction : float;
  empty_fraction : float;
  degree_variance : float;
  avg_bandwidth : float;
  max_bandwidth : float;
  ell_packing : float;
}

(* Gini of the ascending degree sequence, given as a histogram
   ([counts.(d)] nodes have degree [d]):
   G = (2 * sum_i i * x_i / (n * sum x)) - (n + 1) / n, with i starting
   at 1. Walking the histogram upwards visits exactly the sequence a sort
   of the degrees would. Zero total degree yields 0 (perfect equality). *)
let gini_of_counts ~n counts =
  if n = 0 then 0.
  else begin
    let total = ref 0. and weighted = ref 0. and rank = ref 0 in
    for d = 0 to Array.length counts - 1 do
      let x = float_of_int d in
      for _ = 1 to counts.(d) do
        incr rank;
        total := !total +. x;
        weighted := !weighted +. (float_of_int !rank *. x)
      done
    done;
    if !total = 0. then 0.
    else begin
      let nf = float_of_int n in
      (2. *. !weighted /. (nf *. !total)) -. ((nf +. 1.) /. nf)
    end
  end

let extract (g : Graph.t) =
  let adj = g.Graph.adj in
  let row_ptr = adj.Csr.row_ptr and col_idx = adj.Csr.col_idx in
  let n = Graph.n_nodes g in
  let nnz = Graph.n_edges g in
  let nf = float_of_int n in
  let avg = if n = 0 then 0. else float_of_int nnz /. nf in
  (* one pass over the row lengths: extremes, the sum for the mean, the
     skew and empty counts, and the occupancy of an ELL slab as wide as the
     mean degree (rounded up) *)
  let width = max 1 (int_of_float (Float.ceil avg)) in
  let mx = ref 0 and mn = ref max_int and sum = ref 0. in
  let skew = ref 0 and empty = ref 0 and packed = ref 0 in
  for i = 0 to n - 1 do
    let d = row_ptr.(i + 1) - row_ptr.(i) in
    let df = float_of_int d in
    if d > !mx then mx := d;
    if d < !mn then mn := d;
    sum := !sum +. df;
    if df > 4. *. avg then incr skew;
    if d = 0 then incr empty;
    packed := !packed + min d width
  done;
  let mn = if n = 0 then 0 else !mn in
  (* population standard deviation, accumulated in row order *)
  let std =
    if n = 0 then 0.
    else begin
      let mean = !sum /. nf in
      let acc = ref 0. in
      for i = 0 to n - 1 do
        let dev = float_of_int (row_ptr.(i + 1) - row_ptr.(i)) -. mean in
        acc := !acc +. (dev *. dev)
      done;
      sqrt (!acc /. nf)
    end
  in
  (* counting sort of the integer degrees *)
  let counts = Array.make (!mx + 1) 0 in
  for i = 0 to n - 1 do
    let d = row_ptr.(i + 1) - row_ptr.(i) in
    counts.(d) <- counts.(d) + 1
  done;
  (* Bandwidth statistics, normalized by n so they read as "how far across
     the matrix an average/worst edge reaches" in [0, 1]. *)
  let band_sum = ref 0 and band_max = ref 0 in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let b = abs (i - col_idx.(p)) in
      band_sum := !band_sum + b;
      if b > !band_max then band_max := b
    done
  done;
  let avg_bw =
    if nnz = 0 || n = 0 then 0.
    else float_of_int !band_sum /. float_of_int nnz /. nf
  in
  let max_bw = if n = 0 then 0. else float_of_int !band_max /. nf in
  let ell_packing =
    if n = 0 then 1. else float_of_int !packed /. float_of_int (n * width)
  in
  { n_nodes = nf;
    nnz = float_of_int nnz;
    density = (if n = 0 then 0. else float_of_int nnz /. (nf *. nf));
    avg_degree = avg;
    max_degree = float_of_int !mx;
    min_degree = float_of_int mn;
    degree_cv = (if avg = 0. then 0. else std /. avg);
    degree_gini = gini_of_counts ~n counts;
    skew_fraction = (if n = 0 then 0. else float_of_int !skew /. nf);
    empty_fraction = (if n = 0 then 0. else float_of_int !empty /. nf);
    degree_variance = std *. std;
    avg_bandwidth = avg_bw;
    max_bandwidth = max_bw;
    ell_packing }

let log1 x = log (1. +. x)

let to_array f =
  [| log1 f.n_nodes;
     log1 f.nnz;
     f.density;
     log1 f.avg_degree;
     log1 f.max_degree;
     f.min_degree;
     f.degree_cv;
     f.degree_gini;
     f.skew_fraction;
     f.empty_fraction;
     log1 f.degree_variance;
     f.avg_bandwidth;
     f.max_bandwidth;
     f.ell_packing |]

let names =
  [| "log_n"; "log_nnz"; "density"; "log_avg_deg"; "log_max_deg"; "min_deg";
     "deg_cv"; "deg_gini"; "skew_frac"; "empty_frac"; "log_deg_var";
     "avg_bandwidth"; "max_bandwidth"; "ell_packing" |]

let pp ppf f =
  Format.fprintf ppf
    "n=%.0f nnz=%.0f density=%.2e avg_deg=%.2f max_deg=%.0f cv=%.2f gini=%.2f"
    f.n_nodes f.nnz f.density f.avg_degree f.max_degree f.degree_cv f.degree_gini
