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

let gini sorted_degrees =
  (* Gini of a non-negative, ascending-sorted sample:
     G = (2 * sum_i i * x_i / (n * sum x)) - (n + 1) / n, with i starting
     at 1. Zero total degree yields 0 (perfect equality). *)
  let n = Array.length sorted_degrees in
  if n = 0 then 0.
  else begin
    let total = ref 0. and weighted = ref 0. in
    Array.iteri
      (fun i x ->
        total := !total +. x;
        weighted := !weighted +. (float_of_int (i + 1) *. x))
      sorted_degrees;
    if !total = 0. then 0.
    else begin
      let nf = float_of_int n in
      (2. *. !weighted /. (nf *. !total)) -. ((nf +. 1.) /. nf)
    end
  end

let extract (g : Graph.t) =
  let n = Graph.n_nodes g in
  let deg = Csr.row_degrees g.Graph.adj in
  let degf = Array.map float_of_int deg in
  let nnz = Graph.n_edges g in
  let nf = float_of_int n in
  let avg = if n = 0 then 0. else float_of_int nnz /. nf in
  let mx = Array.fold_left max 0 deg in
  let mn = Array.fold_left min max_int (if n = 0 then [| 0 |] else deg) in
  let std = Granii_tensor.Vector.std degf in
  let sorted = Array.copy degf in
  Array.sort compare sorted;
  let skew = Array.fold_left (fun acc d -> if d > 4. *. avg then acc + 1 else acc) 0 degf in
  let empty = Array.fold_left (fun acc d -> if d = 0 then acc + 1 else acc) 0 deg in
  (* Layout statistics for the locality model. Bandwidths are normalized by n
     so they read as "how far across the matrix an average/worst edge
     reaches" in [0, 1]; ell_packing is the slab occupancy a hybrid split at
     the default width (mean degree, rounded up) would achieve. *)
  let band_sum = ref 0 and band_max = ref 0 in
  Csr.iter
    (fun i j _ ->
      let b = abs (i - j) in
      band_sum := !band_sum + b;
      if b > !band_max then band_max := b)
    g.Graph.adj;
  let avg_bw =
    if nnz = 0 || n = 0 then 0.
    else float_of_int !band_sum /. float_of_int nnz /. nf
  in
  let max_bw = if n = 0 then 0. else float_of_int !band_max /. nf in
  let width = max 1 (int_of_float (Float.ceil avg)) in
  let packed = Array.fold_left (fun acc d -> acc + min d width) 0 deg in
  let ell_packing =
    if n = 0 then 1. else float_of_int packed /. float_of_int (n * width)
  in
  { n_nodes = nf;
    nnz = float_of_int nnz;
    density = (if n = 0 then 0. else float_of_int nnz /. (nf *. nf));
    avg_degree = avg;
    max_degree = float_of_int mx;
    min_degree = float_of_int mn;
    degree_cv = (if avg = 0. then 0. else std /. avg);
    degree_gini = gini sorted;
    skew_fraction = (if n = 0 then 0. else float_of_int skew /. nf);
    empty_fraction = (if n = 0 then 0. else float_of_int empty /. nf);
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
