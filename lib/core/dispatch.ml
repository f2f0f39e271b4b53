module Dense = Granii_tensor.Dense
module Vector = Granii_tensor.Vector
module Workspace = Granii_tensor.Workspace
module Csr = Granii_sparse.Csr
module Spmm = Granii_sparse.Spmm
module Sddmm = Granii_sparse.Sddmm
module Sparse_ops = Granii_sparse.Sparse_ops
module K = Granii_hw.Kernel_model

type value =
  | Vdense of Dense.t
  | Vsparse of Csr.t
  | Vdiag of Vector.t

exception Execution_error of string

let err fmt = Format.kasprintf (fun s -> raise (Execution_error s)) fmt

let shape_of = function
  | Vdense d -> Dense.dims d
  | Vsparse s -> (s.Csr.n_rows, s.Csr.n_cols)
  | Vdiag v -> (Array.length v, Array.length v)

let pp_value ppf = function
  | Vdense d ->
      let r, c = Dense.dims d in
      Format.fprintf ppf "dense %dx%d" r c
  | Vsparse s -> Csr.pp ppf s
  | Vdiag v -> Format.fprintf ppf "diag n=%d" (Array.length v)

let dense = function Vdense d -> d | v -> err "expected dense, got %a" pp_value v
let sparse = function Vsparse s -> s | v -> err "expected sparse, got %a" pp_value v
let diag = function Vdiag d -> d | v -> err "expected diagonal, got %a" pp_value v

(* Backing float arrays of a value — what the workspace pools. CSR structure
   arrays are ints and shared with the mask/graph, so only values move. *)
let backing_arrays = function
  | Vdense d -> [ d.Dense.data ]
  | Vsparse s -> ( match s.Csr.values with Some v -> [ v ] | None -> [] )
  | Vdiag v -> [ v ]

let shares_backing a v = List.exists (fun b -> b == a) (backing_arrays v)

(* ---- execution context ---- *)

type ctx = { pool : Granii_tensor.Parallel.t option; ws : Workspace.t option }

let plain = { pool = None; ws = None }

(* ---- shared kernel helpers ---- *)

let diag_to_csr ?ws v =
  (* the diagonal's CSR structure is known in closed form: row i holds the
     single entry (i, i), so row_ptr is 0..n and col_idx the identity — no
     COO staging or sort needed *)
  let n = Array.length v in
  let row_ptr = Array.init (n + 1) (fun i -> i) in
  let col_idx = Array.init n (fun i -> i) in
  let values = Workspace.alloc_uninit ws n in
  Array.blit v 0 values 0 n;
  Csr.make ~n_rows:n ~n_cols:n ~row_ptr ~col_idx ~values:(Some values)

(* GAT's attention function: per stored edge (i, j),
   leaky_relu(a_src . feats_i + a_dst . feats_j). The leaky relu is the
   branch-free select of [Dense.leaky_relu]: [t.(b) *. x] with
   [t = [|0.2; 1.|]], bitwise [if x > 0. then x else 0.2 *. x]. *)
let edge_score ?pool ?ws mask feats a_src a_dst =
  let s = Dense.matmul ?pool ?ws feats a_src and t = Dense.matmul ?pool ?ws feats a_dst in
  let count = Csr.nnz mask in
  let out = Workspace.alloc_uninit ws count in
  (* index the score columns directly ([s] and [t] are n x 1): a [Dense.get]
     call per edge would box its float result in the inner loop *)
  let sd = s.Dense.data and td = t.Dense.data in
  Granii_tensor.Parallel.rows_weighted ?pool ~prefix:mask.Csr.row_ptr (fun lo hi ->
      let t = [| 0.2; 1. |] in
      for i = lo to hi - 1 do
        let si = Array.unsafe_get sd i in
        for p = mask.Csr.row_ptr.(i) to mask.Csr.row_ptr.(i + 1) - 1 do
          let x = si +. Array.unsafe_get td (Array.unsafe_get mask.Csr.col_idx p) in
          out.(p) <- Array.unsafe_get t (Bool.to_int (x > 0.)) *. x
        done
      done);
  Workspace.give_back ws s.Dense.data;
  Workspace.give_back ws t.Dense.data;
  Csr.with_values mask out

(* GAT's negative slope, for the kernel and its epilogue form alike *)
let leaky_slope = 0.2

let apply_nonlinear ?pool ?ws kind d =
  match kind with
  | Matrix_ir.Relu -> Dense.relu ?pool ?ws d
  | Matrix_ir.Leaky_relu -> Dense.leaky_relu ?pool ?ws ~slope:leaky_slope d
  | Matrix_ir.Sigmoid -> Dense.sigmoid ?pool ?ws d
  | Matrix_ir.Log_softmax -> Dense.log_softmax_rows ?pool ?ws d
  | Matrix_ir.Edge_softmax -> err "edge_softmax reached dense map"

let epilogue_op = function
  | Matrix_ir.Relu -> Some Dense.Relu
  | Matrix_ir.Leaky_relu -> Some (Dense.Leaky_relu leaky_slope)
  | Matrix_ir.Sigmoid -> Some Dense.Sigmoid
  | Matrix_ir.Log_softmax | Matrix_ir.Edge_softmax -> None

(* ---- kernel dispatch ----

   One CPU kernel per primitive, chosen by a direct match. *)

let exec ?(epilogue = []) ctx (prim : Primitive.t) graph (args : value array) =
  let pool = ctx.pool and ws = ctx.ws in
  match (prim, args) with
  | Primitive.Gemm _, [| a; b |] ->
      Vdense (Dense.matmul ?pool ?ws ~epilogue (dense a) (dense b))
  | Primitive.Spmm _, [| a; b |] ->
      (* both weightednesses share one kernel *)
      Vdense (Spmm.run ?pool ?ws ~epilogue (sparse a) (dense b))
  | _ when epilogue <> [] ->
      err "primitive %a takes no row epilogue" Primitive.pp prim
  | Primitive.Dense_sparse_mm _, [| a; b |] ->
      Vdense (Spmm.run_transposed ?pool ?ws (dense a) (sparse b))
  | Primitive.Sddmm_rank1, [| dl; a; dr |] ->
      Vsparse (Sddmm.rank1 ?pool ?ws (sparse a) (diag dl) (diag dr))
  | Primitive.Diag_scale { side = `Left }, [| d; a |] ->
      Vsparse (Sparse_ops.scale_rows ?pool ?ws (diag d) (sparse a))
  | Primitive.Diag_scale { side = `Right }, [| a; d |] ->
      Vsparse (Sparse_ops.scale_cols ?pool ?ws (sparse a) (diag d))
  | Primitive.Row_broadcast _, [| d; x |] ->
      Vdense (Dense.row_broadcast ?pool ?ws (diag d) (dense x))
  | Primitive.Col_broadcast _, [| x; d |] ->
      Vdense (Dense.col_broadcast ?pool ?ws (dense x) (diag d))
  | Primitive.Diag_combine, [| a; b |] ->
      let da = diag a and db = diag b in
      let n = Array.length da in
      if Array.length db <> n then err "diag_combine: dimension mismatch";
      let out = Workspace.alloc_uninit ws n in
      for i = 0 to n - 1 do
        out.(i) <- da.(i) *. db.(i)
      done;
      Vdiag out
  | Primitive.Sparse_add _, [||] -> err "sparse_add with no operands"
  | Primitive.Sparse_add _, parts ->
      let as_csr = function
        | Vdiag d -> diag_to_csr ?ws d
        | Vsparse s -> s
        | Vdense _ -> err "sparse_add over a dense operand"
      in
      let acc = ref (as_csr parts.(0)) in
      for i = 1 to Array.length parts - 1 do
        acc := Sparse_ops.add !acc (as_csr parts.(i))
      done;
      Vsparse !acc
  | Primitive.Dense_add _, [||] -> err "dense_add with no operands"
  | Primitive.Dense_add _, parts ->
      let acc = ref (dense parts.(0)) in
      for i = 1 to Array.length parts - 1 do
        let next = Dense.add ?pool ?ws !acc (dense parts.(i)) in
        (* fold temporaries (never the first operand, which a caller may
           still hold) go straight back to the arena *)
        if i > 1 then Workspace.give_back ws !acc.Dense.data;
        acc := next
      done;
      Vdense !acc
  | Primitive.Edge_score _, [| mask; feats; a_src; a_dst |] ->
      Vsparse
        (edge_score ?pool ?ws (sparse mask) (dense feats) (dense a_src)
           (dense a_dst))
  | Primitive.Edge_softmax, [| a |] ->
      Vsparse (Sparse_ops.row_softmax ?pool ?ws (sparse a))
  | Primitive.Dense_map { kind; _ }, [| a |] ->
      Vdense (apply_nonlinear ?pool ?ws kind (dense a))
  | Primitive.Degree { power; _ }, [| _graph_token |] -> (
      (* binned vs rowptr is a cost-model distinction; one value-level
         kernel *)
      match power with
      | Primitive.Inv_sqrt -> Vdiag (Granii_graph.Graph.norm_inv_sqrt graph)
      | Primitive.Inv -> Vdiag (Granii_graph.Graph.norm_inv graph))
  | _ ->
      err "primitive %a applied to %d arguments" Primitive.pp prim
        (Array.length args)

(* Kernels of a step, sized from the actual operand values (so sampling or
   precomputed sparse intermediates are charged their true nnz). *)
let kernels_of_step (prim : Primitive.t) (graph : Granii_graph.Graph.t)
    (args : value array) result =
  let nnz_of v = Csr.nnz (sparse v) in
  let dense_dims v = Dense.dims (dense v) in
  match (prim, args) with
  | Primitive.Gemm _, [| a; b |] ->
      let m, k = dense_dims a and _, n = dense_dims b in
      [ K.Gemm { m; k; n } ]
  | Primitive.Spmm { weighted; _ }, [| a; b |] ->
      let rows = (sparse a).Csr.n_rows and _, k = dense_dims b in
      [ K.Spmm { rows; nnz = nnz_of a; k; weighted } ]
  | Primitive.Dense_sparse_mm _, [| a; b |] ->
      let rows, k = dense_dims a in
      [ K.Dense_sparse_mm { rows; nnz = nnz_of b; cols = (sparse b).Csr.n_cols; k } ]
  | Primitive.Sddmm_rank1, [| _; a; _ |] -> [ K.Sddmm { nnz = nnz_of a; k = 1 } ]
  | Primitive.Diag_scale _, [| a; b |] ->
      let nnz = match a with Vsparse s -> Csr.nnz s | _ -> nnz_of b in
      [ K.Diag_scale_sparse { nnz } ]
  | Primitive.Row_broadcast _, [| _; x |] ->
      let n, k = dense_dims x in
      [ K.Row_broadcast { n; k } ]
  | Primitive.Col_broadcast _, [| x; _ |] ->
      let n, k = dense_dims x in
      [ K.Col_broadcast { n; k } ]
  | Primitive.Diag_combine, [| a; _ |] -> [ K.Diag_combine { n = Array.length (diag a) } ]
  | Primitive.Sparse_add _, _ ->
      let nnz = match result with Vsparse s -> Csr.nnz s | _ -> 0 in
      [ K.Diag_scale_sparse { nnz } ]
  | Primitive.Dense_add _, parts when Array.length parts > 0 ->
      let n, k = dense_dims parts.(0) in
      [ K.Elementwise { n; k; flops_per_elt = float_of_int (Array.length parts - 1) } ]
  | Primitive.Edge_score _, [| mask; feats; _; _ |] ->
      let n, k = dense_dims feats in
      [ K.Gemm { m = n; k; n = 1 };
        K.Gemm { m = n; k; n = 1 };
        K.Sddmm { nnz = nnz_of mask; k = 1 } ]
  | Primitive.Edge_softmax, [| a |] -> [ K.Edge_softmax { nnz = nnz_of a } ]
  | Primitive.Dense_map { kind; _ }, [| a |] ->
      let n, k = dense_dims a in
      let flops_per_elt =
        match kind with
        | Matrix_ir.Relu -> 1.
        | Matrix_ir.Leaky_relu -> 2.
        | Matrix_ir.Sigmoid -> 10.
        | Matrix_ir.Log_softmax | Matrix_ir.Edge_softmax -> 12.
      in
      [ K.Elementwise { n; k; flops_per_elt } ]
  | Primitive.Degree { binned; _ }, _ ->
      let n = Granii_graph.Graph.n_nodes graph in
      let nnz = Granii_graph.Graph.n_edges graph + n in
      if binned then
        [ K.Degree_binning
            { n; nnz; avg_collisions = float_of_int nnz /. float_of_int (max n 1) } ]
      else [ K.Degree_rowptr { n } ]
  | prim, args ->
      err "kernels: primitive %a applied to %d arguments" Primitive.pp prim
        (Array.length args)
