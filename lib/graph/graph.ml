module Csr = Granii_sparse.Csr
module Coo = Granii_sparse.Coo
module Vector = Granii_tensor.Vector

(* Operands derived from [adj], each filled on first use. A slot holds
   [None] until some domain builds the value and wins the compare-and-set;
   a domain that loses drops its own (identical) copy and returns the
   winner's, so every caller sees the physically same value. Unlike
   [Lazy.t], concurrent forcing from several domains is safe. *)
type memo = {
  tilde : Csr.t option Atomic.t;
  inv_sqrt : Vector.t option Atomic.t;
  inv : Vector.t option Atomic.t;
  fingerprint : string option Atomic.t;
}

type t = { name : string; adj : Csr.t; memo : memo }

let make ~name adj =
  if adj.Csr.n_rows <> adj.Csr.n_cols then invalid_arg "Graph.make: adjacency must be square";
  { name;
    adj = Csr.drop_values adj;
    memo =
      { tilde = Atomic.make None;
        inv_sqrt = Atomic.make None;
        inv = Atomic.make None;
        fingerprint = Atomic.make None } }

let memoized slot build =
  match Atomic.get slot with
  | Some v -> v
  | None -> (
      let v = build () in
      if Atomic.compare_and_set slot None (Some v) then v
      else match Atomic.get slot with Some w -> w | None -> assert false)

let of_edges ~name ~n edges =
  let directed =
    List.concat_map
      (fun (s, d) -> if s = d then [] else [ (s, d); (d, s) ])
      edges
  in
  let coo = Coo.of_edges ~n directed in
  make ~name (Csr.of_coo ~keep_values:false coo)

let n_nodes g = g.adj.Csr.n_rows
let n_edges g = Csr.nnz g.adj

let density g =
  let n = float_of_int (n_nodes g) in
  if n = 0. then 0. else float_of_int (n_edges g) /. (n *. n)

let avg_degree g =
  let n = n_nodes g in
  if n = 0 then 0. else float_of_int (n_edges g) /. float_of_int n

let max_degree g = Array.fold_left max 0 (Csr.row_degrees g.adj)

(* Ã = A + I in one pass over the rows: each output row is the row's
   distinct columns plus [i], in increasing order. A row that is already
   strictly increasing (every generator and sampler output) is merged with
   [i] in place; any other row (a permuted graph keeps its source entry
   order, and [make] accepts duplicate columns) is sorted and deduplicated
   first. *)
let build_self_loops (adj : Csr.t) =
  let n = adj.Csr.n_rows in
  let src_ptr = adj.Csr.row_ptr and src = adj.Csr.col_idx in
  let row_ptr = Array.make (n + 1) 0 in
  let col_idx = Array.make (Csr.nnz adj + n) 0 in
  let q = ref 0 in
  let emit c = col_idx.(!q) <- c; incr q in
  for i = 0 to n - 1 do
    let lo = src_ptr.(i) and hi = src_ptr.(i + 1) in
    let increasing = ref true in
    for p = lo + 1 to hi - 1 do
      if src.(p - 1) >= src.(p) then increasing := false
    done;
    if !increasing then begin
      let pending = ref true in
      for p = lo to hi - 1 do
        let c = src.(p) in
        if !pending && c >= i then begin
          if c > i then emit i;
          pending := false
        end;
        emit c
      done;
      if !pending then emit i
    end
    else begin
      let row = Array.make (hi - lo + 1) i in
      Array.blit src lo row 0 (hi - lo);
      Array.sort Int.compare row;
      Array.iteri (fun k c -> if k = 0 || c <> row.(k - 1) then emit c) row
    end;
    row_ptr.(i + 1) <- !q
  done;
  let col_idx = if !q = Array.length col_idx then col_idx else Array.sub col_idx 0 !q in
  Csr.make ~n_rows:n ~n_cols:n ~row_ptr ~col_idx ~values:None

let with_self_loops g = memoized g.memo.tilde (fun () -> build_self_loops g.adj)

let degrees_tilde g =
  let rp = (with_self_loops g).Csr.row_ptr in
  let d = Array.create_float (n_nodes g) in
  for i = 0 to Array.length d - 1 do
    d.(i) <- float_of_int (rp.(i + 1) - rp.(i))
  done;
  d

let norm_inv_sqrt g =
  memoized g.memo.inv_sqrt (fun () -> Vector.inv_sqrt (degrees_tilde g))

let norm_inv g = memoized g.memo.inv (fun () -> Vector.pow (-1.) (degrees_tilde g))

let build_plan_operands g =
  ignore (with_self_loops g : Csr.t);
  ignore (norm_inv_sqrt g : Vector.t)

let fingerprint g =
  memoized g.memo.fingerprint (fun () ->
      Printf.sprintf "n=%d;nnz=%d;adj=%s" (n_nodes g) (n_edges g)
        (Digest.to_hex
           (Digest.string
              (Marshal.to_string (g.adj.Csr.row_ptr, g.adj.Csr.col_idx)
                 [ Marshal.No_sharing ]))))

let is_symmetric g =
  let t = Csr.transpose g.adj in
  Csr.equal_structure g.adj t

let pp ppf g =
  Format.fprintf ppf "%s: n=%d nnz=%d avg_deg=%.1f" g.name (n_nodes g) (n_edges g)
    (avg_degree g)
