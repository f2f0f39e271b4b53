module Dense = Granii_tensor.Dense
module Vector = Granii_tensor.Vector
module Csr = Granii_sparse.Csr
module Spmm = Granii_sparse.Spmm
module Sddmm = Granii_sparse.Sddmm
module Core = Granii_core
module Ex = Core.Executor
module P = Core.Primitive
module K = Granii_hw.Kernel_model

type grads = (string * Dense.t) list

let err fmt = Format.kasprintf (fun s -> raise (Ex.Execution_error s)) fmt

let dense = function Ex.Vdense d -> d | _ -> err "autodiff: expected dense value"
let sparse = function Ex.Vsparse s -> s | _ -> err "autodiff: expected sparse value"
let diag = function Ex.Vdiag d -> d | _ -> err "autodiff: expected diagonal value"

(* Gradient accumulator keyed by plan source. Dense grads for dense values,
   same-structure CSR grads for sparse values. *)
module Acc = struct
  type t = (Core.Plan.source, Ex.value) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) src g =
    match (Hashtbl.find_opt t src, g) with
    | None, _ -> Hashtbl.replace t src g
    | Some (Ex.Vdense old), Ex.Vdense g -> Hashtbl.replace t src (Ex.Vdense (Dense.add old g))
    | Some (Ex.Vsparse old), Ex.Vsparse g ->
        let sum = Array.create_float (Csr.nnz old) in
        for p = 0 to Array.length sum - 1 do
          sum.(p) <- Csr.value old p +. Csr.value g p
        done;
        Hashtbl.replace t src (Ex.Vsparse (Csr.with_values old sum))
    | Some _, _ -> err "autodiff: gradient kind mismatch"

  let find (t : t) src = Hashtbl.find_opt t src
end

(* VJP of the row-wise softmax over stored values:
   ds = alpha .* (g - rowsum(alpha .* g)). *)
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

(* The VJPs below are direct loops over the flat arrays: a closure call per
   element ([Dense.init], [Dense.map2], [Array.init]) would box every float
   it passes or returns. Each computes the same operations in the same order
   as the closure form. *)

(* VJP of an elementwise map, given its input [x] and output cotangent [g].
   Relu and leaky relu pick their result with the forward kernels'
   branch-free select ([Dense.relu]): both candidates go into a 2-slot table
   and [Bool.to_int (x > 0.)] indexes it. Each candidate is the branch's own
   expression, so the result is bitwise the branchy loop's for every input;
   on random-sign activations that branch mispredicts about half the
   time. *)
let map_vjp kind (x : Dense.t) (g : Dense.t) =
  if Dense.dims x <> Dense.dims g then err "autodiff: map VJP shape mismatch";
  let rows, cols = Dense.dims x in
  let xd = x.Dense.data and gd = g.Dense.data in
  let out = Array.create_float (rows * cols) in
  (match kind with
  | Core.Matrix_ir.Relu ->
      let t = [| 0.; 0. |] in
      for i = 0 to Array.length out - 1 do
        Array.unsafe_set t 1 gd.(i);
        out.(i) <- Array.unsafe_get t (Bool.to_int (xd.(i) > 0.))
      done
  | Core.Matrix_ir.Leaky_relu ->
      let t = [| 0.; 0. |] in
      for i = 0 to Array.length out - 1 do
        let gv = gd.(i) in
        Array.unsafe_set t 0 (0.2 *. gv);
        Array.unsafe_set t 1 gv;
        out.(i) <- Array.unsafe_get t (Bool.to_int (xd.(i) > 0.))
      done
  | Core.Matrix_ir.Sigmoid ->
      for i = 0 to Array.length out - 1 do
        let sg = 1. /. (1. +. exp (-.xd.(i))) in
        out.(i) <- gd.(i) *. sg *. (1. -. sg)
      done
  | Core.Matrix_ir.Log_softmax ->
      (* dx_ij = g_ij - softmax(x)_ij * sum_c g_ic, the row sum taken once *)
      let sm = (Dense.softmax_rows x).Dense.data in
      for i = 0 to rows - 1 do
        let base = i * cols in
        let gsum = ref 0. in
        for c = 0 to cols - 1 do
          gsum := !gsum +. gd.(base + c)
        done;
        for j = 0 to cols - 1 do
          out.(base + j) <- gd.(base + j) -. (sm.(base + j) *. !gsum)
        done
      done
  | Core.Matrix_ir.Edge_softmax -> err "autodiff: edge_softmax on dense");
  Dense.of_flat ~rows ~cols out

(* [col . row^T] for a vector [col] (n) and a (k x 1) [row]: n x k. *)
let outer_product (col : Vector.t) (row : Dense.t) =
  let n = Array.length col and k = row.Dense.rows in
  let rd = row.Dense.data in
  let out = Array.create_float (n * k) in
  for i = 0 to n - 1 do
    let ci = col.(i) and base = i * k in
    for j = 0 to k - 1 do
      out.(base + j) <- ci *. rd.(j)
    done
  done;
  Dense.of_flat ~rows:n ~cols:k out

(* [m^T . v] as a (k x 1) dense, each entry summed in ascending row order. *)
let matvec_t (m : Dense.t) (v : Vector.t) =
  let n, k = Dense.dims m in
  let md = m.Dense.data in
  let out = Array.create_float k in
  for j = 0 to k - 1 do
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (md.((i * k) + j) *. v.(i))
    done;
    out.(j) <- !acc
  done;
  Dense.of_flat ~rows:k ~cols:1 out

(* Stored values as a flat array: an unweighted matrix's are all 1., as
   [Csr.value] reads them. *)
let values_of (m : Csr.t) =
  match m.Csr.values with Some v -> v | None -> Array.make (Csr.nnz m) 1.

(* The edge-score VJP's per-source and per-destination sums of the score
   cotangent chained through the leaky relu (the output's sign is the
   input's): [(row sums, column sums)] of [slope(score) * g] over the
   scores' structure, each accumulated in storage order. The slope is a
   branch-free select from [[|0.2; 1.|]] on [score >= 0.], the branch's
   convention, and the value arrays are read directly ([Csr.value] would
   box each entry). *)
let edge_score_sums (scores : Csr.t) (g : Csr.t) =
  let ds = Vector.zeros scores.Csr.n_rows and dt = Vector.zeros scores.Csr.n_cols in
  let sv = values_of scores and gv = values_of g in
  let slopes = [| 0.2; 1. |] in
  for i = 0 to scores.Csr.n_rows - 1 do
    let acc = ref 0. in
    for p = scores.Csr.row_ptr.(i) to scores.Csr.row_ptr.(i + 1) - 1 do
      let slope = Array.unsafe_get slopes (Bool.to_int (sv.(p) >= 0.)) in
      let v = slope *. gv.(p) in
      acc := !acc +. v;
      let j = scores.Csr.col_idx.(p) in
      dt.(j) <- dt.(j) +. v
    done;
    ds.(i) <- !acc
  done;
  (ds, dt)

(* Reverse pass for the dense inputs named in [wrt]. A source gets a
   gradient only if it lies on a path from the output back to one of them:
   a bound input in [wrt], or a per-iteration step with such an input among
   its transitive arguments (setup steps are graph-derived constants). Every
   other VJP term is skipped before it is computed. The wanted sources
   receive the same terms, in the same order, as under the full pass, so
   their gradients are bitwise those of {!backward}. *)
let backward_wrt ~wrt ~(plan : Core.Plan.t) ~graph ~bindings ~(forward : Ex.report) ~seed =
  ignore graph;
  let value_of = function
    | Core.Plan.Computed i -> (
        match List.assoc_opt i forward.Ex.intermediates with
        | Some v -> v
        | None -> err "autodiff: missing forward value for step t%d" i)
    | Core.Plan.Input "__graph__" -> err "autodiff: graph token has no value"
    | Core.Plan.Input name -> (
        match List.assoc_opt name bindings with
        | Some v -> v
        | None -> err "autodiff: unbound input %s" name)
  in
  let reaches = Hashtbl.create 16 in
  let wants_grad = function
    | Core.Plan.Computed i -> Hashtbl.mem reaches i
    | Core.Plan.Input "__graph__" -> false
    | Core.Plan.Input name -> List.mem name wrt
  in
  List.iter
    (fun (s : Core.Plan.step) ->
      if s.Core.Plan.phase = Core.Plan.Per_iteration
         && List.exists wants_grad s.Core.Plan.args
      then Hashtbl.replace reaches s.Core.Plan.idx ())
    plan.Core.Plan.steps;
  let acc = Acc.create () in
  Acc.add acc plan.Core.Plan.output (Ex.Vdense seed);
  let steps_rev = List.rev plan.Core.Plan.steps in
  List.iter
    (fun (s : Core.Plan.step) ->
      if s.Core.Plan.phase = Core.Plan.Per_iteration then
        match Acc.find acc (Core.Plan.Computed s.Core.Plan.idx) with
        | None -> ()
        | Some g -> (
            let args = s.Core.Plan.args in
            let push src grad = if wants_grad src then Acc.add acc src (grad ()) in
            match (s.Core.Plan.prim, args) with
            | P.Gemm _, [ sa; sb ] ->
                let gd = dense g in
                (* dA = G B^T copies B's transpose, weight-sized on every
                   plan; dB = A^T G reads the n-row A in place *)
                push sa (fun () ->
                    Ex.Vdense (Dense.matmul gd (Dense.transpose (dense (value_of sb)))));
                push sb (fun () -> Ex.Vdense (Dense.matmul_tn (dense (value_of sa)) gd))
            | P.Spmm _, [ ss; sb ] ->
                let sp = sparse (value_of ss) in
                let gd = dense g in
                push sb (fun () -> Ex.Vdense (Spmm.run_t sp gd));
                (* dS_ij = <dC_i, B_j>: an SDDMM over S's structure. *)
                push ss (fun () ->
                    Ex.Vsparse (Sddmm.dot_rows (Csr.drop_values sp) gd (dense (value_of sb))))
            | P.Dense_sparse_mm _, [ sb; ss ] ->
                (* G . S^T copies [Csr.transpose]: a gather over S's rows
                   would add in S's storage order, not in ascending column,
                   so it would be bitwise only on sorted rows *)
                let sp = sparse (value_of ss) in
                push sb (fun () ->
                    Ex.Vdense (Spmm.run_transposed (dense g) (Csr.transpose sp)))
            | P.Row_broadcast _, [ sd; sx ] ->
                push sx (fun () ->
                    Ex.Vdense (Dense.row_broadcast (diag (value_of sd)) (dense g)))
            | P.Col_broadcast _, [ sx; sd ] ->
                push sx (fun () ->
                    Ex.Vdense (Dense.col_broadcast (dense g) (diag (value_of sd))))
            | P.Dense_add _, parts -> List.iter (fun src -> push src (fun () -> g)) parts
            | P.Dense_map { kind; _ }, [ sx ] ->
                push sx (fun () -> Ex.Vdense (map_vjp kind (dense (value_of sx)) (dense g)))
            | P.Edge_softmax, [ ssc ] ->
                push ssc (fun () ->
                    let alpha = sparse (value_of (Core.Plan.Computed s.Core.Plan.idx)) in
                    Ex.Vsparse (edge_softmax_vjp alpha (sparse g)))
            | P.Edge_score _, [ _mask; sfeats; sasrc; sadst ] ->
                let theta = dense (value_of sfeats) in
                let a_src = dense (value_of sasrc) and a_dst = dense (value_of sadst) in
                let scores = sparse (value_of (Core.Plan.Computed s.Core.Plan.idx)) in
                let ds, dt = edge_score_sums scores (sparse g) in
                push sfeats (fun () ->
                    Ex.Vdense (Dense.add (outer_product ds a_src) (outer_product dt a_dst)));
                push sasrc (fun () -> Ex.Vdense (matvec_t theta ds));
                push sadst (fun () -> Ex.Vdense (matvec_t theta dt))
            | (P.Sddmm_rank1 | P.Diag_scale _ | P.Diag_combine | P.Sparse_add _
              | P.Degree _), _ ->
                (* Graph-derived computations carry no data gradient. *)
                ()
            | prim, args ->
                err "autodiff: no VJP for %a/%d" P.pp prim (List.length args)))
    steps_rev;
  List.filter_map
    (fun (name, v) ->
      match (v, Acc.find acc (Core.Plan.Input name)) with
      | Ex.Vdense _, Some (Ex.Vdense g) -> Some (name, g)
      | _, _ -> None)
    bindings

let backward ~plan ~graph ~bindings ~forward ~seed =
  let dense_inputs =
    List.filter_map
      (function name, Ex.Vdense _ -> Some name | _, _ -> None)
      bindings
  in
  backward_wrt ~wrt:dense_inputs ~plan ~graph ~bindings ~forward ~seed

let backward_kernels ~graph ~env (plan : Core.Plan.t) =
  let n = Granii_graph.Graph.n_nodes graph in
  let nnz = Granii_graph.Graph.n_edges graph + n in
  let i = Core.Dim.instantiate env in
  (* Whether a source carries a data gradient: only outputs of per-iteration
     steps do — setup-phase intermediates (precomputed normalized adjacency,
     degree vectors) are graph-derived constants. *)
  let phase_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Core.Plan.step) -> Hashtbl.replace tbl s.Core.Plan.idx s.Core.Plan.phase)
      plan.Core.Plan.steps;
    fun idx -> Hashtbl.find_opt tbl idx
  in
  List.concat_map
    (fun (s : Core.Plan.step) ->
      if s.Core.Plan.phase = Core.Plan.Setup then []
      else
        match s.Core.Plan.prim with
        | P.Gemm { m; k; n = cols } ->
            [ K.Gemm { m = i m; k = i cols; n = i k }; K.Gemm { m = i k; k = i m; n = i cols } ]
        | P.Spmm { k; weighted } ->
            let base = [ K.Spmm { rows = n; nnz; k = i k; weighted } ] in
            (* an attention-valued sparse operand also needs dS = SDDMM;
               sparse operands precomputed at setup do not *)
            let needs_sparse_grad =
              match s.Core.Plan.args with
              | Core.Plan.Computed idx :: _ when weighted ->
                  phase_of idx = Some Core.Plan.Per_iteration
              | _ -> false
            in
            if needs_sparse_grad then K.Sddmm { nnz; k = i k } :: base else base
        | P.Dense_sparse_mm { m } ->
            [ K.Dense_sparse_mm { rows = i m; nnz; cols = n; k = n } ]
        | P.Row_broadcast { k } -> [ K.Row_broadcast { n; k = i k } ]
        | P.Col_broadcast { k } -> [ K.Col_broadcast { n; k = i k } ]
        | P.Dense_add { m; k } -> [ K.Elementwise { n = i m; k = i k; flops_per_elt = 1. } ]
        | P.Dense_map { m; k; _ } ->
            [ K.Elementwise { n = i m; k = i k; flops_per_elt = 2. } ]
        | P.Edge_score { k } ->
            [ K.Gemm { m = n; k = i k; n = 1 };
              K.Gemm { m = n; k = i k; n = 1 };
              K.Sddmm { nnz; k = 1 };
              K.Edge_softmax { nnz } ]
        | P.Edge_softmax -> [ K.Edge_softmax { nnz }; K.Edge_softmax { nnz } ]
        | P.Sddmm_rank1 | P.Diag_scale _ | P.Diag_combine | P.Sparse_add _
        | P.Degree _ ->
            [])
    plan.Core.Plan.steps

let backward_time ~profile ~graph ~env ?(seed = 0) plan =
  List.fold_left
    (fun acc k -> acc +. K.time_noisy profile ~seed k)
    0.
    (backward_kernels ~graph ~env plan)
