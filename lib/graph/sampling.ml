module Csr = Granii_sparse.Csr
module Coo = Granii_sparse.Coo
module Prng = Granii_tensor.Prng

let neighborhood ?(seed = 0) ~fanout (g : Graph.t) =
  if fanout <= 0 then invalid_arg "Sampling.neighborhood: fanout must be positive";
  let rng = Prng.create (seed + 909) in
  let adj = g.Graph.adj in
  let n = Graph.n_nodes g in
  let entries = ref [] in
  for i = 0 to n - 1 do
    let lo = adj.Csr.row_ptr.(i) in
    let deg = adj.Csr.row_ptr.(i + 1) - lo in
    if deg <= fanout then
      for p = lo to lo + deg - 1 do
        entries := (i, adj.Csr.col_idx.(p), 1.) :: !entries
      done
    else begin
      let picks = Prng.sample_without_replacement rng fanout deg in
      Array.iter (fun off -> entries := (i, adj.Csr.col_idx.(lo + off), 1.) :: !entries) picks
    end
  done;
  let coo = Coo.make ~n_rows:n ~n_cols:n (Array.of_list !entries) in
  Graph.make
    ~name:(Printf.sprintf "%s_fanout%d_seed%d" g.Graph.name fanout seed)
    (Csr.of_coo ~keep_values:false coo)

let induced_subgraph (g : Graph.t) nodes =
  let k = Array.length nodes in
  let index = Hashtbl.create k in
  Array.iteri
    (fun new_id old_id ->
      if Hashtbl.mem index old_id then
        invalid_arg "Sampling.induced_subgraph: duplicate node id";
      Hashtbl.add index old_id new_id)
    nodes;
  let entries = ref [] in
  Array.iteri
    (fun new_src old_src ->
      let adj = g.Graph.adj in
      for p = adj.Csr.row_ptr.(old_src) to adj.Csr.row_ptr.(old_src + 1) - 1 do
        match Hashtbl.find_opt index adj.Csr.col_idx.(p) with
        | Some new_dst -> entries := (new_src, new_dst, 1.) :: !entries
        | None -> ()
      done)
    nodes;
  let coo = Coo.make ~n_rows:k ~n_cols:k (Array.of_list !entries) in
  Graph.make ~name:(g.Graph.name ^ "_induced") (Csr.of_coo ~keep_values:false coo)

let random_nodes ?(seed = 0) (g : Graph.t) k =
  let rng = Prng.create (seed + 808) in
  Prng.sample_without_replacement rng k (Graph.n_nodes g)

(* Ascending int sort of [a.(lo .. lo + len - 1)] in place. Sampled rows
   and per-node draws are short, and an insertion sort of a few ints beats
   [Array.sort]'s closure-compared merge sort; long rows still take it,
   with the monomorphic int compare. *)
let sort_range a lo len =
  if len <= 32 then
    for i = lo + 1 to lo + len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let sub = Array.sub a lo len in
    Array.sort Int.compare sub;
    Array.blit sub 0 a lo len
  end

(* Restore the sorted-column CSR invariant per row: a compact renumbering
   (seeds first) is not monotone in the original ids, so the scattered
   columns arrive unsorted. *)
let sort_rows ~row_ptr col_idx =
  for r = 0 to Array.length row_ptr - 2 do
    let lo = row_ptr.(r) in
    let len = row_ptr.(r + 1) - lo in
    if len > 1 then sort_range col_idx lo len
  done

let induced_compact (g : Graph.t) nodes =
  let n = Graph.n_nodes g in
  let k = Array.length nodes in
  let newid = Array.make n (-1) in
  Array.iteri
    (fun ni oi ->
      if oi < 0 || oi >= n then
        invalid_arg "Sampling.induced_compact: node id out of range";
      if newid.(oi) >= 0 then
        invalid_arg "Sampling.induced_compact: duplicate node id";
      newid.(oi) <- ni)
    nodes;
  let adj = g.Graph.adj in
  (* one counting pass over the original adjacency: entries with both
     endpoints kept scatter to their new source row, everything else to the
     trash bucket [k] *)
  let bucket i p =
    let bi = newid.(i) in
    if bi < 0 || newid.(adj.Csr.col_idx.(p)) < 0 then k else bi
  in
  let ptr, order, _ = Csr.counting_scatter ~n_buckets:(k + 1) ~bucket adj in
  let m = ptr.(k) in
  let row_ptr = Array.sub ptr 0 (k + 1) in
  let col_idx = Array.make m 0 in
  for q = 0 to m - 1 do
    col_idx.(q) <- newid.(adj.Csr.col_idx.(order.(q)))
  done;
  sort_rows ~row_ptr col_idx;
  Graph.make
    ~name:(g.Graph.name ^ "_induced")
    (Csr.make ~n_rows:k ~n_cols:k ~row_ptr ~col_idx ~values:None)

type layered = {
  subgraph : Graph.t;
  nodes : int array;
  n_seeds : int;
}

(* [newid] maps an original id to its new id, -1 when unvisited. Between
   calls every entry is -1: a call resets exactly the entries it set (the
   visited nodes), so a batch costs O(batch), not O(graph). *)
type scratch = { mutable newid : int array }

let scratch () = { newid = [||] }

(* A growable int buffer. *)
type buf = { mutable a : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * Array.length b.a) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  Array.unsafe_set b.a b.len x;
  b.len <- b.len + 1

(* The sampler proper, on a [newid] that is all -1 on entry; it leaves
   every visited node's entry set and listed in [nodes]. *)
let sample_into ~newid ~nodes ~seed ~fanouts ~seeds (g : Graph.t) =
  let n = Graph.n_nodes g in
  let n_seeds = Array.length seeds in
  Array.iter
    (fun oi ->
      if oi < 0 || oi >= n then
        invalid_arg "Sampling.layered_fanout: seed node out of range";
      if newid.(oi) >= 0 then
        invalid_arg "Sampling.layered_fanout: duplicate seed node";
      newid.(oi) <- nodes.len;
      push nodes oi)
    seeds;
  let adj = g.Graph.adj in
  let row_ptr = adj.Csr.row_ptr and adj_col = adj.Csr.col_idx in
  (* Each layer's frontier is the nodes first visited by the layer before
     (the seeds for the first), which is a contiguous range of new ids. A
     node samples once, when it is a frontier member, and the frontiers are
     visited in new-id order, so the edges arrive grouped by source row in
     ascending order: [ends.a.(ni)] is where row [ni]'s columns end. *)
  let cols = { a = Array.make (max 16 (4 * n_seeds)) 0; len = 0 } in
  let ends = { a = Array.make (max 16 n_seeds) 0; len = 0 } in
  let pick p =
    let v = Array.unsafe_get adj_col p in
    let nv = newid.(v) in
    if nv >= 0 then push cols nv
    else begin
      newid.(v) <- nodes.len;
      push cols nodes.len;
      push nodes v
    end
  in
  let lo_f = ref 0 in
  List.iteri
    (fun layer fanout ->
      let hi_f = nodes.len in
      for nu = !lo_f to hi_f - 1 do
        let u = nodes.a.(nu) in
        let lo = row_ptr.(u) in
        let deg = row_ptr.(u + 1) - lo in
        if deg <= fanout then
          for p = lo to lo + deg - 1 do
            pick p
          done
        else begin
          (* one generator per (seed, layer, node): the draw is a pure
             function of those three, independent of frontier iteration
             order and of any thread count *)
          let rng =
            Prng.create
              (seed
              lxor (((layer + 1) * 0x9e3779b1) + (u * 0x85ebca6b) + 0x6d))
          in
          let pk = Prng.sample_without_replacement rng fanout deg in
          sort_range pk 0 fanout;
          for q = 0 to fanout - 1 do
            pick (lo + pk.(q))
          done
        end;
        push ends cols.len
      done;
      lo_f := hi_f)
    fanouts;
  (* one sampling draws distinct positions, so no row has a duplicate
     column; rows past the last frontier (the last layer's fresh nodes)
     are empty *)
  let k = nodes.len in
  let m = cols.len in
  let row_ptr = Array.make (k + 1) m in
  row_ptr.(0) <- 0;
  Array.blit ends.a 0 row_ptr 1 ends.len;
  let col_idx = Array.sub cols.a 0 m in
  sort_rows ~row_ptr col_idx;
  let subgraph =
    Graph.make
      ~name:(Printf.sprintf "%s_layered_seed%d" g.Graph.name seed)
      (Csr.make ~n_rows:k ~n_cols:k ~row_ptr ~col_idx ~values:None)
  in
  { subgraph; nodes = Array.sub nodes.a 0 k; n_seeds }

let layered_fanout ~scratch ?(seed = 0) ~fanouts ~seeds (g : Graph.t) =
  if fanouts = [] then
    invalid_arg "Sampling.layered_fanout: fanouts must be non-empty";
  List.iter
    (fun f ->
      if f <= 0 then
        invalid_arg "Sampling.layered_fanout: fanouts must be positive")
    fanouts;
  let n = Graph.n_nodes g in
  let n_seeds = Array.length seeds in
  if n_seeds = 0 then
    invalid_arg "Sampling.layered_fanout: seeds must be non-empty";
  if Array.length scratch.newid < n then scratch.newid <- Array.make n (-1);
  let newid = scratch.newid in
  (* [nodes.a.(ni)] is the original id of new id [ni]; new ids are given in
     visit order, seeds first *)
  let nodes = { a = Array.make (max 16 (4 * n_seeds)) 0; len = 0 } in
  let reset () =
    for ni = 0 to nodes.len - 1 do
      Array.unsafe_set newid (Array.unsafe_get nodes.a ni) (-1)
    done
  in
  Fun.protect ~finally:reset (fun () ->
      sample_into ~newid ~nodes ~seed ~fanouts ~seeds g)
