module Hw = Granii_hw.Hw_profile
module Gf = Granii_graph.Graph_features
module Reorder = Granii_graph.Reorder

type format = Csr | Hybrid

type config = { strategy : Reorder.strategy; format : format }

let default = { strategy = Reorder.Identity; format = Csr }

let is_default c = c.strategy = Reorder.Identity && c.format = Csr

let format_to_string = function
  | Csr -> "csr"
  | Hybrid -> "hybrid"

let format_of_string = function
  | "csr" -> Some Csr
  | "hybrid" | "ell" -> Some Hybrid
  | _ -> None

let all_formats = [ Csr; Hybrid ]

let config_to_string c =
  Reorder.strategy_to_string c.strategy ^ "+" ^ format_to_string c.format

(* Default config first, so a strict-minimum argmin keeps the legacy path
   whenever no configuration is predicted strictly cheaper. Every ordering
   composes with every format: the hybrid slab and tail keep each row's
   storage order. *)
let all_configs =
  default
  :: List.concat_map
       (fun s ->
         List.filter_map
           (fun f ->
             let c = { strategy = s; format = f } in
             if is_default c then None else Some c)
           all_formats)
       Reorder.all_strategies

(* How much a configuration is predicted to shrink the random-gather traffic
   of the g-kernels, as a fraction in [0, 1). The two axes compose as
   independent survival probabilities: traffic that the format does not save
   can still be saved by the ordering.

   - Format: the slab recovers up to [hybrid_gather_discount], scaled by the
     packing efficiency it would achieve on this degree distribution (a
     badly-packed slab is just CSR with padding).
   - Ordering: up to [locality_order_discount], scaled by a per-strategy
     quality proxy computed from the input statistics alone — degree-sort
     pays off with degree skew (Gini), BFS/RCM on near-regular, sparse
     inputs where a bandwidth-reducing order exists at all. *)
let order_quality (stats : Gf.t) = function
  | Reorder.Identity -> 0.
  | Reorder.Degree_sort -> Float.max 0. (Float.min 1. stats.Gf.degree_gini)
  | Reorder.Bfs | Reorder.Rcm ->
      Float.max 0.
        (Float.min 1. ((1. -. stats.Gf.density) *. (1. -. stats.Gf.degree_gini)))

let gather_discount (p : Hw.t) (stats : Gf.t) config =
  let fmt =
    match config.format with
    | Csr -> 0.
    | Hybrid -> p.Hw.hybrid_gather_discount *. stats.Gf.ell_packing
  in
  let ord = p.Hw.locality_order_discount *. order_quality stats config.strategy in
  1. -. ((1. -. fmt) *. (1. -. ord))

(* One-time layout work a configuration must amortize: a counting-scatter
   pass for the permuted re-index, another for the format conversion. *)
let layout_kernels ~n ~nnz config =
  let pass = Granii_hw.Kernel_model.Layout_pass { n; nnz } in
  (if config.strategy = Reorder.Identity then [] else [ pass ])
  @ match config.format with Csr -> [] | Hybrid -> [ pass ]

let pp ppf c = Format.pp_print_string ppf (config_to_string c)
