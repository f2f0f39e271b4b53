(* The training path's per-batch work (sampler, featurizer, loss, reverse
   pass) against the straightforward implementations it replaced, kept here
   as references: list-and-hash-set sampling, a float sort and closure
   folds for the graph statistics, closure-per-element VJPs, and a loss
   over every row. Each rewrite must be bitwise equal to its reference. *)

open Granii_core
open Test_util
module Dense = Granii_tensor.Dense
module Vector = Granii_tensor.Vector
module Prng = Granii_tensor.Prng
module Csr = Granii_sparse.Csr
module Spmm = Granii_sparse.Spmm
module Sddmm = Granii_sparse.Sddmm
module Coo = Granii_sparse.Coo
module G = Granii_graph
module Gf = Granii_graph.Graph_features
module Gnn = Granii_gnn
module Mp = Granii_mp

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let dense_bits_equal (a : Dense.t) (b : Dense.t) =
  a.Dense.rows = b.Dense.rows && a.Dense.cols = b.Dense.cols
  && bits_equal a.Dense.data b.Dense.data

(* ---- featurizer ---- *)

let reference_gini sorted_degrees =
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

let reference_extract (g : G.Graph.t) =
  let n = G.Graph.n_nodes g in
  let deg = Csr.row_degrees g.G.Graph.adj in
  let degf = Array.map float_of_int deg in
  let nnz = G.Graph.n_edges g in
  let nf = float_of_int n in
  let avg = if n = 0 then 0. else float_of_int nnz /. nf in
  let mx = Array.fold_left max 0 deg in
  let mn = Array.fold_left min max_int (if n = 0 then [| 0 |] else deg) in
  let std = Vector.std degf in
  let sorted = Array.copy degf in
  Array.sort compare sorted;
  let skew = Array.fold_left (fun acc d -> if d > 4. *. avg then acc + 1 else acc) 0 degf in
  let empty = Array.fold_left (fun acc d -> if d = 0 then acc + 1 else acc) 0 deg in
  let band_sum = ref 0 and band_max = ref 0 in
  Csr.iter
    (fun i j _ ->
      let b = abs (i - j) in
      band_sum := !band_sum + b;
      if b > !band_max then band_max := b)
    g.G.Graph.adj;
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
  { Gf.n_nodes = nf;
    nnz = float_of_int nnz;
    density = (if n = 0 then 0. else float_of_int nnz /. (nf *. nf));
    avg_degree = avg;
    max_degree = float_of_int mx;
    min_degree = float_of_int mn;
    degree_cv = (if avg = 0. then 0. else std /. avg);
    degree_gini = reference_gini sorted;
    skew_fraction = (if n = 0 then 0. else float_of_int skew /. nf);
    empty_fraction = (if n = 0 then 0. else float_of_int empty /. nf);
    degree_variance = std *. std;
    avg_bandwidth = avg_bw;
    max_bandwidth = max_bw;
    ell_packing }

let fields (f : Gf.t) =
  Gf.
    [| f.n_nodes; f.nnz; f.density; f.avg_degree; f.max_degree; f.min_degree;
       f.degree_cv; f.degree_gini; f.skew_fraction; f.empty_fraction;
       f.degree_variance; f.avg_bandwidth; f.max_bandwidth; f.ell_packing |]

let features_match g = bits_equal (fields (Gf.extract g)) (fields (reference_extract g))

(* Degenerate graphs: n = 0 and 1, isolated nodes, stars, repeated columns
   (Test_util's degenerate matrices as adjacencies) *)
let degenerate_graphs =
  let empty0 =
    G.Graph.make ~name:"n0"
      (Csr.make ~n_rows:0 ~n_cols:0 ~row_ptr:[| 0 |] ~col_idx:[||] ~values:None)
  in
  let repeated =
    (* a row storing the same column three times *)
    G.Graph.make ~name:"repeated"
      (Csr.make ~n_rows:4 ~n_cols:4 ~row_ptr:[| 0; 3; 4; 4; 6 |]
         ~col_idx:[| 2; 2; 2; 0; 1; 1 |] ~values:None)
  in
  (("n = 0", empty0) :: ("repeated columns", repeated)
   :: List.map (fun (name, m) -> (name, G.Graph.make ~name m)) degenerates)
  @ List.map (fun n -> (Printf.sprintf "star %d" n, G.Generators.star ~n)) [ 1; 2; 9; 200 ]

let test_features_degenerate () =
  List.iter
    (fun (name, g) -> check_true (name ^ ": features bitwise = reference") (features_match g))
    degenerate_graphs

let skewed_graph_gen =
  let open QCheck2.Gen in
  oneof
    [ graph_gen;
      (let* scale = int_range 4 9 and* ef = int_range 1 12 and* seed = int_range 0 10_000 in
       return (G.Generators.rmat ~seed ~scale ~edge_factor:ef ()));
      (* barabasi_albert needs n > m *)
      (let* m = int_range 1 4 in
       let* n = int_range (max 3 (m + 1)) 300 and* seed = int_range 0 10_000 in
       return (G.Generators.barabasi_albert ~seed ~n ~m ())) ]

let test_features_random =
  qtest ~count:300 "Graph_features.extract is bitwise the sort-and-fold reference"
    skewed_graph_gen features_match

(* ---- sampler ---- *)

(* The sampler's rejection regime with a hash set, for every k *)
let reference_sample_without_replacement t k n =
  if k >= n then begin
    let all = Array.init n (fun i -> i) in
    Prng.shuffle_in_place t all;
    all
  end
  else if k * 3 > n then begin
    let all = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + Prng.int t (n - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    Array.sub all 0 k
  end
  else begin
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let x = Prng.int t n in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        out.(!filled) <- x;
        incr filled
      end
    done;
    out
  end

let reference_sort_rows ~row_ptr col_idx =
  Array.iteri
    (fun r lo ->
      if r < Array.length row_ptr - 1 then begin
        let len = row_ptr.(r + 1) - lo in
        if len > 1 then begin
          let sub = Array.sub col_idx lo len in
          Array.sort compare sub;
          Array.blit sub 0 col_idx lo len
        end
      end)
    row_ptr

(* the list-based sampler: returns (nodes, row_ptr, col_idx) *)
let reference_layered_fanout ~seed ~fanouts ~seeds (g : G.Graph.t) =
  let n = G.Graph.n_nodes g in
  let newid = Array.make n (-1) in
  let rev_order = ref [] in
  let count = ref 0 in
  let visit oi =
    if newid.(oi) >= 0 then newid.(oi)
    else begin
      let ni = !count in
      newid.(oi) <- ni;
      incr count;
      rev_order := oi :: !rev_order;
      ni
    end
  in
  Array.iter (fun oi -> ignore (visit oi)) seeds;
  let adj = g.G.Graph.adj in
  let rev_edges = ref [] in
  let n_edges = ref 0 in
  let frontier = ref (Array.to_list seeds) in
  List.iteri
    (fun layer fanout ->
      let next = ref [] in
      List.iter
        (fun u ->
          let nu = newid.(u) in
          let lo = adj.Csr.row_ptr.(u) in
          let deg = adj.Csr.row_ptr.(u + 1) - lo in
          let pick p =
            let v = adj.Csr.col_idx.(p) in
            let fresh = newid.(v) < 0 in
            let nv = visit v in
            if fresh then next := v :: !next;
            rev_edges := (nu, nv) :: !rev_edges;
            incr n_edges
          in
          if deg <= fanout then
            for p = lo to lo + deg - 1 do
              pick p
            done
          else begin
            let rng =
              Prng.create
                (seed lxor (((layer + 1) * 0x9e3779b1) + (u * 0x85ebca6b) + 0x6d))
            in
            let picks = reference_sample_without_replacement rng fanout deg in
            Array.sort compare picks;
            Array.iter (fun off -> pick (lo + off)) picks
          end)
        !frontier;
      frontier := List.rev !next)
    fanouts;
  let k = !count in
  let m = !n_edges in
  let row_ptr = Array.make (k + 1) 0 in
  List.iter (fun (s, _) -> row_ptr.(s + 1) <- row_ptr.(s + 1) + 1) !rev_edges;
  for i = 0 to k - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let col_idx = Array.make m 0 in
  let cursor = Array.copy row_ptr in
  List.iter
    (fun (s, d) ->
      col_idx.(cursor.(s)) <- d;
      cursor.(s) <- cursor.(s) + 1)
    (List.rev !rev_edges);
  reference_sort_rows ~row_ptr col_idx;
  (Array.of_list (List.rev !rev_order), row_ptr, col_idx)

(* A graph with hubs, fanouts drawn from 1..40 (so both the small-draw scan
   and the hash set of the rejection regime, and the dense regime, are
   exercised), and a seed batch that always holds the highest-degree node. *)
let sampler_case_gen =
  let open QCheck2.Gen in
  let* g =
    oneof
      [ (let* scale = int_range 6 10 and* ef = int_range 4 24 and* seed = int_range 0 10_000 in
         return (G.Generators.rmat ~seed ~scale ~edge_factor:ef ()));
        (let* n = int_range 50 600 and* m = int_range 2 8 and* seed = int_range 0 10_000 in
         return (G.Generators.barabasi_albert ~seed ~n ~m ())) ]
  in
  let* fanouts = list_size (int_range 1 3) (int_range 1 40) in
  let* seed = int_range 0 1_000_000 in
  let* batch = int_range 1 64 in
  let n = G.Graph.n_nodes g in
  let deg = Csr.row_degrees g.G.Graph.adj in
  let hub = ref 0 in
  Array.iteri (fun i d -> if d > deg.(!hub) then hub := i) deg;
  let order = Array.init n Fun.id in
  Prng.shuffle_in_place (Prng.create seed) order;
  let seeds =
    Array.append [| !hub |]
      (Array.of_list (List.filter (fun v -> v <> !hub)
         (Array.to_list (Array.sub order 0 (min batch n)))))
  in
  return (g, fanouts, seed, seeds)

let print_case (g, fanouts, seed, seeds) =
  Printf.sprintf "%s fanouts=[%s] seed=%d seeds=%d" g.G.Graph.name
    (String.concat "," (List.map string_of_int fanouts)) seed (Array.length seeds)

let test_sampler_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~print:print_case
       ~name:"layered_fanout is the list-and-hash-set sampler's output" sampler_case_gen
       (fun (g, fanouts, seed, seeds) ->
         let s =
           G.Sampling.layered_fanout ~scratch:(G.Sampling.scratch ()) ~seed ~fanouts ~seeds g
         in
         let nodes, row_ptr, col_idx = reference_layered_fanout ~seed ~fanouts ~seeds g in
         let adj = s.G.Sampling.subgraph.G.Graph.adj in
         s.G.Sampling.nodes = nodes && adj.Csr.row_ptr = row_ptr && adj.Csr.col_idx = col_idx
         && s.G.Sampling.n_seeds = Array.length seeds))

(* One scratch across back-to-back batches (each resets only the entries
   it visited), a rejected batch among them, equals a fresh sample each. *)
let test_sampler_scratch =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~print:print_case
       ~name:"layered_fanout with a reused scratch equals fresh samples" sampler_case_gen
       (fun (g, fanouts, seed, seeds) ->
         let scratch = G.Sampling.scratch () in
         let same (a : G.Sampling.layered) (b : G.Sampling.layered) =
           let x = a.G.Sampling.subgraph.G.Graph.adj
           and y = b.G.Sampling.subgraph.G.Graph.adj in
           a.G.Sampling.nodes = b.G.Sampling.nodes
           && x.Csr.row_ptr = y.Csr.row_ptr && x.Csr.col_idx = y.Csr.col_idx
           && a.G.Sampling.n_seeds = b.G.Sampling.n_seeds
         in
         let batch i =
           let seeds = if i = 1 then Array.sub seeds 0 1 else seeds in
           let seed = seed + i in
           same
             (G.Sampling.layered_fanout ~scratch ~seed ~fanouts ~seeds g)
             (G.Sampling.layered_fanout ~scratch:(G.Sampling.scratch ()) ~seed ~fanouts ~seeds g)
         in
         let rejected =
           (* a duplicate seed raises after the first copy was numbered *)
           match
             G.Sampling.layered_fanout ~scratch ~seed ~fanouts
               ~seeds:(Array.append seeds [| seeds.(0) |]) g
           with
           | _ -> false
           | exception Invalid_argument _ -> true
         in
         batch 0 && batch 1 && rejected && batch 2 && batch 0))

let test_draws_reference =
  qtest ~count:500 "sample_without_replacement draws as the hash-set reference"
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 1 80) (int_range 1 400))
    (fun (seed, k, n) ->
      let a = Prng.sample_without_replacement (Prng.create seed) k n in
      let b = reference_sample_without_replacement (Prng.create seed) k n in
      a = b)

(* ---- loss ---- *)

let reference_softmax_cross_entropy ?mask ~logits ~labels () =
  let n, c = Dense.dims logits in
  let in_mask i = match mask with None -> true | Some m -> m.(i) in
  let count =
    match mask with
    | None -> n
    | Some m -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m
  in
  let scale = 1. /. float_of_int count in
  let log_probs = Dense.log_softmax_rows logits in
  let loss = ref 0. in
  let grad = Dense.zeros n c in
  for i = 0 to n - 1 do
    if in_mask i then begin
      loss := !loss -. Dense.get log_probs i labels.(i);
      for j = 0 to c - 1 do
        let p = exp (Dense.get log_probs i j) in
        let indicator = if j = labels.(i) then 1. else 0. in
        Dense.set grad i j (scale *. (p -. indicator))
      done
    end
  done;
  (!loss *. scale, grad)

let test_loss_reference =
  qtest ~count:200 "masked loss is bitwise the every-row reference"
    QCheck2.Gen.(quad (int_range 1 60) (int_range 1 7) (int_range 0 10_000) bool)
    (fun (n, c, seed, masked) ->
      let logits = Dense.random ~seed ~scale:4. n c in
      let labels = Array.init n (fun i -> (i * 7 + seed) mod c) in
      let mask =
        if masked then Some (Array.init n (fun i -> i = 0 || (i + seed) mod 3 = 0)) else None
      in
      let l, g = Gnn.Loss.softmax_cross_entropy ?mask ~logits ~labels () in
      let l', g' = reference_softmax_cross_entropy ?mask ~logits ~labels () in
      bits_equal [| l |] [| l' |] && dense_bits_equal g g')

(* ---- reverse pass ---- *)

module Ex = Executor
module P = Primitive

let err fmt = Format.kasprintf (fun s -> raise (Ex.Execution_error s)) fmt
let dense = function Ex.Vdense d -> d | _ -> err "autodiff: expected dense value"
let sparse = function Ex.Vsparse s -> s | _ -> err "autodiff: expected sparse value"
let diag = function Ex.Vdiag d -> d | _ -> err "autodiff: expected diagonal value"

module Acc = struct
  type t = (Plan.source, Ex.value) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) src g =
    match (Hashtbl.find_opt t src, g) with
    | None, _ -> Hashtbl.replace t src g
    | Some (Ex.Vdense old), Ex.Vdense g -> Hashtbl.replace t src (Ex.Vdense (Dense.add old g))
    | Some (Ex.Vsparse old), Ex.Vsparse g ->
        let sum =
          Array.init (Csr.nnz old) (fun p -> Csr.value old p +. Csr.value g p)
        in
        Hashtbl.replace t src (Ex.Vsparse (Csr.with_values old sum))
    | Some _, _ -> err "autodiff: gradient kind mismatch"

  let find (t : t) src = Hashtbl.find_opt t src
end

let sparse_row_sums s = Granii_sparse.Sparse_ops.row_sums s

let sparse_col_sums (s : Csr.t) =
  let acc = Vector.zeros s.Csr.n_cols in
  Csr.iter (fun _ j v -> acc.(j) <- acc.(j) +. v) s;
  acc

let edge_softmax_vjp (alpha : Csr.t) (g : Csr.t) =
  let out = Array.make (Csr.nnz alpha) 0. in
  for i = 0 to alpha.Csr.n_rows - 1 do
    let lo = alpha.Csr.row_ptr.(i) and hi = alpha.Csr.row_ptr.(i + 1) - 1 in
    let dot = ref 0. in
    for p = lo to hi do
      dot := !dot +. (Csr.value alpha p *. Csr.value g p)
    done;
    for p = lo to hi do
      out.(p) <- Csr.value alpha p *. (Csr.value g p -. !dot)
    done
  done;
  Csr.with_values alpha out

let outer_product (col : Vector.t) (row : Dense.t) =
  let k, _ = Dense.dims row in
  Dense.init (Array.length col) k (fun i j -> col.(i) *. Dense.get row j 0)

let matvec_t (m : Dense.t) (v : Vector.t) =
  let n, k = Dense.dims m in
  Dense.init k 1 (fun j _ ->
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. (Dense.get m i j *. v.(i))
      done;
      !acc)

let reference_transpose (m : Dense.t) =
  Dense.init m.Dense.cols m.Dense.rows (fun i j -> Dense.get m j i)

(* The full reverse pass with closure-per-element VJPs, every source's
   gradient computed *)
let reference_backward ~(plan : Plan.t) ~graph ~bindings ~(forward : Ex.report) ~seed =
  ignore graph;
  let value_of = function
    | Plan.Computed i -> (
        match List.assoc_opt i forward.Ex.intermediates with
        | Some v -> v
        | None -> err "autodiff: missing forward value for step t%d" i)
    | Plan.Input "__graph__" -> err "autodiff: graph token has no value"
    | Plan.Input name -> (
        match List.assoc_opt name bindings with
        | Some v -> v
        | None -> err "autodiff: unbound input %s" name)
  in
  let phase_of_step =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (s : Plan.step) -> Hashtbl.replace tbl s.Plan.idx s.Plan.phase) plan.Plan.steps;
    fun i -> Hashtbl.find_opt tbl i
  in
  (* A source needs a gradient if it is a per-iteration computed step (its
     producer will consume it) or a bound dense input. *)
  let wants_grad = function
    | Plan.Computed i -> phase_of_step i = Some Plan.Per_iteration
    | Plan.Input "__graph__" -> false
    | Plan.Input _ -> true
  in
  let acc = Acc.create () in
  Acc.add acc plan.Plan.output (Ex.Vdense seed);
  let steps_rev = List.rev plan.Plan.steps in
  List.iter
    (fun (s : Plan.step) ->
      if s.Plan.phase = Plan.Per_iteration then
        match Acc.find acc (Plan.Computed s.Plan.idx) with
        | None -> ()
        | Some g -> (
            let args = s.Plan.args in
            let push src v = if wants_grad src then Acc.add acc src v in
            match (s.Plan.prim, args) with
            | P.Gemm _, [ sa; sb ] ->
                let a = dense (value_of sa) and b = dense (value_of sb) in
                let gd = dense g in
                push sa (Ex.Vdense (Dense.matmul gd (reference_transpose b)));
                push sb (Ex.Vdense (Dense.matmul (reference_transpose a) gd))
            | P.Spmm _, [ ss; sb ] ->
                let sp = sparse (value_of ss) in
                let gd = dense g in
                push sb (Ex.Vdense (Spmm.run (Csr.transpose sp) gd));
                if wants_grad ss then
                  (* dS_ij = <dC_i, B_j>: an SDDMM over S's structure. *)
                  push ss (Ex.Vsparse (Sddmm.dot_rows (Csr.drop_values sp) gd (dense (value_of sb))))
            | P.Dense_sparse_mm _, [ sb; ss ] ->
                let sp = sparse (value_of ss) in
                push sb (Ex.Vdense (Spmm.run_transposed (dense g) (Csr.transpose sp)))
            | P.Row_broadcast _, [ sd; sx ] ->
                push sx (Ex.Vdense (Dense.row_broadcast (diag (value_of sd)) (dense g)))
            | P.Col_broadcast _, [ sx; sd ] ->
                push sx (Ex.Vdense (Dense.col_broadcast (dense g) (diag (value_of sd))))
            | P.Dense_add _, parts -> List.iter (fun src -> push src g) parts
            | P.Dense_map { kind; _ }, [ sx ] ->
                let x = dense (value_of sx) and gd = dense g in
                let gx =
                  match kind with
                  | Matrix_ir.Relu ->
                      Dense.map2 (fun xv gv -> if xv > 0. then gv else 0.) x gd
                  | Matrix_ir.Leaky_relu ->
                      Dense.map2 (fun xv gv -> if xv > 0. then gv else 0.2 *. gv) x gd
                  | Matrix_ir.Sigmoid ->
                      Dense.map2
                        (fun xv gv ->
                          let sg = 1. /. (1. +. exp (-.xv)) in
                          gv *. sg *. (1. -. sg))
                        x gd
                  | Matrix_ir.Log_softmax ->
                      let sm = Dense.softmax_rows x in
                      let rows, cols = Dense.dims x in
                      Dense.init rows cols (fun i j ->
                          let gsum = ref 0. in
                          for c = 0 to cols - 1 do
                            gsum := !gsum +. Dense.get gd i c
                          done;
                          Dense.get gd i j -. (Dense.get sm i j *. !gsum))
                  | Matrix_ir.Edge_softmax -> err "autodiff: edge_softmax on dense"
                in
                push sx (Ex.Vdense gx)
            | P.Edge_softmax, [ ssc ] ->
                let alpha = sparse (value_of (Plan.Computed s.Plan.idx)) in
                push ssc (Ex.Vsparse (edge_softmax_vjp alpha (sparse g)))
            | P.Edge_score _, [ _mask; sfeats; sasrc; sadst ] ->
                let theta = dense (value_of sfeats) in
                let a_src = dense (value_of sasrc) and a_dst = dense (value_of sadst) in
                let scores = sparse (value_of (Plan.Computed s.Plan.idx)) in
                let gsc = sparse g in
                (* chain through leaky_relu: sign of output = sign of input *)
                let dscore =
                  Csr.with_values scores
                    (Array.init (Csr.nnz scores) (fun p ->
                         let slope = if Csr.value scores p >= 0. then 1. else 0.2 in
                         slope *. Csr.value gsc p))
                in
                let ds = sparse_row_sums dscore and dt = sparse_col_sums dscore in
                push sfeats
                  (Ex.Vdense (Dense.add (outer_product ds a_src) (outer_product dt a_dst)));
                push sasrc (Ex.Vdense (matvec_t theta ds));
                push sadst (Ex.Vdense (matvec_t theta dt))
            | (P.Sddmm_rank1 | P.Diag_scale _ | P.Diag_combine | P.Sparse_add _
              | P.Degree _), _ ->
                (* Graph-derived computations carry no data gradient. *)
                ()
            | prim, args ->
                err "autodiff: no VJP for %a/%d" P.pp prim (List.length args)))
    steps_rev;
  List.filter_map
    (fun (name, v) ->
      match (v, Acc.find acc (Plan.Input name)) with
      | Ex.Vdense _, Some (Ex.Vdense g) -> Some (name, g)
      | _, _ -> None)
    bindings

let grads_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (n, x) (m, y) -> n = m && dense_bits_equal x y) a b

let compiled_of model =
  let low = Mp.Lower.lower model in
  let compiled, _ =
    Granii.compile ~name:model.Mp.Mp_ast.name
      ~degree_leaves:(Mp.Lower.degree_leaves low ~binned:false)
      low.Mp.Lower.ir
  in
  (low, compiled)

(* Forward, loss and the three reverse passes of one plan: the reference,
   the full pass and the parameter-only pass. *)
let check_plan ~what ~graph ~bindings ~params ~labels (plan : Plan.t) =
  let forward =
    Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph ~bindings plan
  in
  let logits = dense forward.Executor.output in
  let mask = Array.init logits.Dense.rows (fun i -> i mod 3 = 0) in
  let _, seed = Gnn.Loss.softmax_cross_entropy ~mask ~logits ~labels () in
  let reference = reference_backward ~plan ~graph ~bindings ~forward ~seed in
  let full = Gnn.Autodiff.backward ~plan ~graph ~bindings ~forward ~seed in
  let names = List.map fst params in
  let only = Gnn.Autodiff.backward_wrt ~wrt:names ~plan ~graph ~bindings ~forward ~seed in
  check_true (what ^ ": full pass bitwise = reference") (grads_equal full reference);
  check_true
    (what ^ ": parameter-only pass = the full pass's parameter gradients")
    (grads_equal only (List.filter (fun (n, _) -> List.mem n names) full)
    && List.map fst only = names)

let test_backward_models () =
  let graphs =
    [ G.Generators.erdos_renyi ~seed:13 ~n:40 ~avg_degree:4. ();
      G.Generators.rmat ~seed:3 ~scale:6 ~edge_factor:6 ();
      G.Generators.star ~n:12 ]
  in
  List.iter
    (fun model ->
      let low, compiled = compiled_of model in
      List.iter
        (fun graph ->
          let n = G.Graph.n_nodes graph in
          let k_in = 6 and k_out = 5 in
          let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out } in
          let params = Gnn.Layer.init_params ~seed:7 ~env low in
          let h = Dense.random ~seed:8 n k_in in
          let bindings = Gnn.Layer.bindings ~graph ~h params in
          let labels = Array.init n (fun i -> i mod k_out) in
          List.iter
            (fun (c : Codegen.ccand) ->
              let plan = c.Codegen.plan in
              check_plan
                ~what:(Printf.sprintf "%s %s on %s" model.Mp.Mp_ast.name plan.Plan.name
                         graph.G.Graph.name)
                ~graph ~bindings ~params ~labels plan)
            compiled.Codegen.candidates)
        graphs)
    [ Mp.Mp_models.gcn; Mp.Mp_models.gin; Mp.Mp_models.gat ]

(* GEMM then one elementwise map, for each map kind's VJP *)
let test_backward_maps () =
  let graph = G.Generators.erdos_renyi ~seed:5 ~n:30 ~avg_degree:3. () in
  let n = G.Graph.n_nodes graph in
  let w = Dense.random ~seed:2 ~scale:2. 4 5 in
  let h = Dense.random ~seed:3 ~scale:2. n 4 in
  let bindings = [ ("H", Ex.Vdense h); ("W", Ex.Vdense w) ] in
  let labels = Array.init n (fun i -> i mod 5) in
  List.iter
    (fun (name, kind) ->
      let plan =
        { Plan.steps =
            [ { Plan.idx = 0; prim = P.Gemm { m = Dim.N; k = Dim.Kin; n = Dim.Kout };
                args = [ Plan.Input "H"; Plan.Input "W" ]; phase = Plan.Per_iteration };
              { Plan.idx = 1; prim = P.Dense_map { kind; m = Dim.N; k = Dim.Kout };
                args = [ Plan.Computed 0 ]; phase = Plan.Per_iteration } ];
          output = Plan.Computed 1;
          name = "gemm_" ^ name }
      in
      check_plan ~what:("map " ^ name) ~graph ~bindings ~params:[ ("W", w) ] ~labels plan)
    [ ("relu", Matrix_ir.Relu); ("leaky_relu", Matrix_ir.Leaky_relu);
      ("sigmoid", Matrix_ir.Sigmoid); ("log_softmax", Matrix_ir.Log_softmax) ]

(* The parameter-only reverse pass on a GCN batch the size of the train
   benchmark's (2,478 nodes, 32 input features, 5 classes) allocates no
   n x k_in array: the weight gradient reads the features in place. Every
   array it does allocate is n x k_out or smaller, and arrays this large go
   straight to the major heap, so its major-heap words stay below one
   n x k_in array's. *)
let test_backward_allocation () =
  let low, compiled = compiled_of Mp.Mp_models.gcn in
  let graph = G.Generators.erdos_renyi ~seed:21 ~n:2478 ~avg_degree:2. () in
  let n = G.Graph.n_nodes graph and k_in = 32 and k_out = 5 in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out } in
  let params = Gnn.Layer.init_params ~seed:7 ~env low in
  let bindings = Gnn.Layer.bindings ~graph ~h:(Dense.random ~seed:8 n k_in) params in
  let labels = Array.init n (fun i -> i mod k_out) in
  let mask = Array.init n (fun i -> i < 256) in
  let major_words () =
    let _, _, w = Gc.counters () in
    w
  in
  List.iter
    (fun (c : Codegen.ccand) ->
      let plan = c.Codegen.plan in
      let forward =
        Executor.exec ~engine:(Engine.default ()) ~timing:Executor.Measure ~graph ~bindings
          plan
      in
      let _, seed =
        Gnn.Loss.softmax_cross_entropy ~mask ~logits:(dense forward.Executor.output) ~labels ()
      in
      let w0 = major_words () in
      let grads =
        Gnn.Autodiff.backward_wrt ~wrt:(List.map fst params) ~plan ~graph ~bindings ~forward
          ~seed
      in
      let words = major_words () -. w0 in
      ignore (Sys.opaque_identity grads);
      check_true
        (Printf.sprintf "%s: %.0f major words < one %dx%d array (%d)" plan.Plan.name words n
           k_in (n * k_in))
        (words < float_of_int (n * k_in)))
    compiled.Codegen.candidates

(* D^-1/2 is memoized on the graph and bound by the plan's [Degree] step;
   a run that recycles every dead intermediate must leave it untouched. *)
let test_norm_memo_survives_drop () =
  let low, compiled = compiled_of Mp.Mp_models.gcn in
  let graph = G.Generators.rmat ~seed:5 ~scale:7 ~edge_factor:5 () in
  let n = G.Graph.n_nodes graph in
  let env = { Dim.n; nnz = G.Graph.n_edges graph + n; k_in = 6; k_out = 4 } in
  let params = Gnn.Layer.init_params ~seed:2 ~env low in
  let bindings = Gnn.Layer.bindings ~graph ~h:(Dense.random ~seed:3 n 6) params in
  let d = G.Graph.norm_inv_sqrt graph in
  let snapshot = Array.copy d in
  let keep = Engine.default () in
  let drop =
    Engine.create_exn { Engine.default_config with keep_intermediates = false }
  in
  List.iter
    (fun (c : Codegen.ccand) ->
      let plan = c.Codegen.plan in
      let run engine =
        dense (Executor.exec_iterations ~engine ~timing:Executor.Measure ~graph ~bindings
                 ~iterations:3 plan).Executor.output
      in
      let reference = run keep in
      let dropped = run drop and again = run drop in
      check_true (plan.Plan.name ^ ": drop runs bitwise the keep run")
        (dense_bits_equal reference dropped && dense_bits_equal reference again);
      check_true (plan.Plan.name ^ ": the memo is the same vector, bitwise")
        (G.Graph.norm_inv_sqrt graph == d && bits_equal d snapshot))
    compiled.Codegen.candidates;
  check_true "the memo equals a fresh derivation"
    (bits_equal d (Vector.inv_sqrt (G.Graph.degrees_tilde graph)))

(* ---- transposed-operand kernels ---- *)

(* Random entries with exact zeros of both signs mixed in (the kernels
   [matmul] may pick skip a zero multiplier; the transposed kernels add its
   product). *)
let dense_with_zeros ~seed rows cols =
  let d = Dense.random ~seed ~scale:2. rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      match (i + (3 * j) + seed) mod 7 with
      | 0 -> Dense.set d i j 0.
      | 1 -> Dense.set d i j (-0.)
      | _ -> ()
    done
  done;
  d

(* Row counts 0, 1 and random (up to past [matmul]'s blocked threshold at
   9 x 9 outputs); column counts 1..9 put the product on [matmul]'s narrow,
   unblocked and blocked paths. *)
let tn_case_gen =
  let open QCheck2.Gen in
  let* rows = oneof [ return 0; return 1; int_range 2 70; int_range 400 1200 ] in
  let* m = int_range 1 9 and* n = int_range 1 9 and* seed = int_range 0 100_000 in
  return (rows, m, n, seed)

let test_matmul_tn =
  qtest ~count:300 "matmul_tn is bitwise matmul (transpose a) b" tn_case_gen
    (fun (rows, m, n, seed) ->
      let a = dense_with_zeros ~seed rows m and b = dense_with_zeros ~seed:(seed + 1) rows n in
      dense_bits_equal (Dense.matmul_tn a b) (Dense.matmul (Dense.transpose a) b))

(* CSR straight from [Csr.make]: empty rows, rows in random column order
   with duplicate columns, weighted or not, 0, 1 or many rows. *)
let raw_csr_gen =
  let open QCheck2.Gen in
  let* n_rows = oneof [ return 0; return 1; int_range 2 60 ] in
  let* n_cols = int_range 1 30 and* seed = int_range 0 100_000 and* weighted = bool in
  let rng = Prng.create seed in
  let row_ptr = Array.make (n_rows + 1) 0 in
  let cols = ref [] in
  for i = 0 to n_rows - 1 do
    let len = if Prng.bool rng 0.25 then 0 else Prng.int rng 9 in
    for _ = 1 to len do
      cols := Prng.int rng n_cols :: !cols
    done;
    row_ptr.(i + 1) <- row_ptr.(i) + len
  done;
  let col_idx = Array.of_list (List.rev !cols) in
  let values =
    if weighted then
      Some (Array.init (Array.length col_idx) (fun p ->
          if p mod 5 = 0 then 0. else Prng.uniform rng (-2.) 2.))
    else None
  in
  let* k = int_range 1 9 in
  return (Csr.make ~n_rows ~n_cols ~row_ptr ~col_idx ~values, k, seed)

let test_run_t =
  qtest ~count:300 "Spmm.run_t is bitwise Spmm.run (Csr.transpose a) b" raw_csr_gen
    (fun (a, k, seed) ->
      let b = dense_with_zeros ~seed a.Csr.n_rows k in
      dense_bits_equal (Spmm.run_t a b) (Spmm.run (Csr.transpose a) b))

(* A stably permuted matrix keeps each source row's entry order, so its rows
   are not sorted by column. *)
let test_run_t_permuted () =
  let g = G.Generators.rmat ~seed:4 ~scale:7 ~edge_factor:6 () in
  let n = G.Graph.n_nodes g in
  let perm = Array.init n Fun.id in
  Prng.shuffle_in_place (Prng.create 9) perm;
  let r = G.Reorder.of_perm ~strategy:G.Reorder.Degree_sort perm in
  let weighted =
    Granii_sparse.Sparse_ops.scale_rows (G.Graph.norm_inv_sqrt g) (G.Graph.with_self_loops g)
  in
  let unsorted m =
    let found = ref false in
    for i = 0 to m.Csr.n_rows - 1 do
      for p = m.Csr.row_ptr.(i) + 1 to m.Csr.row_ptr.(i + 1) - 1 do
        if m.Csr.col_idx.(p - 1) > m.Csr.col_idx.(p) then found := true
      done
    done;
    !found
  in
  List.iter
    (fun (what, m) ->
      let pm = G.Reorder.permute_csr r m in
      check_true (what ^ ": the permuted rows are unsorted") (unsorted pm);
      List.iter
        (fun k ->
          let b = dense_with_zeros ~seed:k n k in
          check_true
            (Printf.sprintf "%s k=%d: run_t bitwise" what k)
            (dense_bits_equal (Spmm.run_t pm b) (Spmm.run (Csr.transpose pm) b)))
        [ 1; 4; 5; 8; 9 ])
    [ ("weighted", weighted); ("unweighted", G.Graph.with_self_loops g) ]

let suite =
  [ Alcotest.test_case "features: degenerate graphs bitwise" `Quick test_features_degenerate;
    test_features_random;
    test_sampler_reference;
    test_sampler_scratch;
    test_matmul_tn;
    test_run_t;
    Alcotest.test_case "run_t on a permuted CSR with unsorted rows" `Quick test_run_t_permuted;
    test_draws_reference;
    test_loss_reference;
    Alcotest.test_case "backward: GCN, GIN and GAT plans bitwise" `Quick test_backward_models;
    Alcotest.test_case "backward: elementwise map VJPs bitwise" `Quick test_backward_maps;
    Alcotest.test_case "backward: no n x k_in array on a GCN batch" `Quick
      test_backward_allocation;
    Alcotest.test_case "D^-1/2 memo survives intermediates=drop" `Quick
      test_norm_memo_survives_drop ]
