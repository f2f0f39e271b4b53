module Prng = Granii_tensor.Prng

let name_of fmt = Printf.sprintf fmt

let erdos_renyi ?(seed = 1) ~n ~avg_degree () =
  let rng = Prng.create (seed + 101) in
  let target = int_of_float (float_of_int n *. avg_degree /. 2.) in
  let edges = ref [] in
  for _ = 1 to target do
    let s = Prng.int rng n and d = Prng.int rng n in
    if s <> d then edges := (s, d) :: !edges
  done;
  Graph.of_edges ~name:(name_of "er_n%d_d%.0f" n avg_degree) ~n !edges

let barabasi_albert ?(seed = 1) ~n ~m () =
  if n < m + 1 then invalid_arg "Generators.barabasi_albert: n must exceed m";
  let rng = Prng.create (seed + 202) in
  (* [target_arr] records one endpoint per half-edge, so sampling an element
     uniformly is sampling a node proportionally to its degree. *)
  let target_arr = Array.make ((2 * m * n) + (m * (m + 1))) 0 in
  let fill = ref 0 in
  let push x =
    target_arr.(!fill) <- x;
    incr fill
  in
  let edges = ref [] in
  (* Seed clique over the first m+1 nodes. *)
  for i = 0 to m do
    for j = i + 1 to m do
      edges := (i, j) :: !edges;
      push i;
      push j
    done
  done;
  for v = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    let attempts = ref 0 in
    while Hashtbl.length chosen < m && !attempts < 50 * m do
      incr attempts;
      let u = target_arr.(Prng.int rng !fill) in
      if u <> v && not (Hashtbl.mem chosen u) then Hashtbl.add chosen u ()
    done;
    Hashtbl.iter
      (fun u () ->
        edges := (v, u) :: !edges;
        push v;
        push u)
      chosen
  done;
  Graph.of_edges ~name:(name_of "ba_n%d_m%d" n m) ~n !edges

let rmat ?(seed = 1) ?(a = 0.57) ?(b = 0.19) ?(c = 0.19) ~scale ~edge_factor () =
  let rng = Prng.create (seed + 303) in
  let n = 1 lsl scale in
  let n_edges = edge_factor * n in
  let edges = ref [] in
  for _ = 1 to n_edges do
    let s = ref 0 and d = ref 0 in
    for level = scale - 1 downto 0 do
      let r = Prng.float rng in
      let bit = 1 lsl level in
      if r < a then ()
      else if r < a +. b then d := !d lor bit
      else if r < a +. b +. c then s := !s lor bit
      else begin
        s := !s lor bit;
        d := !d lor bit
      end
    done;
    if !s <> !d then edges := (!s, !d) :: !edges
  done;
  Graph.of_edges ~name:(name_of "rmat_s%d_e%d" scale edge_factor) ~n !edges

let grid2d ?(seed = 1) ?(diagonal_fraction = 0.05) ~rows ~cols () =
  let rng = Prng.create (seed + 404) in
  let n = rows * cols in
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges;
      if r + 1 < rows && c + 1 < cols && Prng.bool rng diagonal_fraction then
        edges := (id r c, id (r + 1) (c + 1)) :: !edges
    done
  done;
  Graph.of_edges ~name:(name_of "grid_%dx%d" rows cols) ~n !edges

let mycielskian ?(levels = 11) () =
  if levels < 2 then invalid_arg "Generators.mycielskian: levels must be >= 2";
  (* M_2 = K_2; the Mycielskian of G = (V, E) with |V| = n adds shadow nodes
     u_i (index n + i) and an apex w (index 2n): each edge (i, j) gains
     (u_i, j) and (i, u_j), and every u_i connects to w. *)
  let edges = ref [ (0, 1) ] in
  let n = ref 2 in
  for _ = 3 to levels do
    let old_n = !n in
    let shadow i = old_n + i in
    let apex = 2 * old_n in
    let extra =
      List.concat_map (fun (i, j) -> [ (shadow i, j); (i, shadow j) ]) !edges
    in
    let to_apex = List.init old_n (fun i -> (shadow i, apex)) in
    edges := !edges @ extra @ to_apex;
    n := (2 * old_n) + 1
  done;
  Graph.of_edges ~name:(name_of "mycielskian%d" levels) ~n:!n !edges

let community_overlap ?(seed = 1) ~n ~groups ~degree () =
  if groups < 1 then invalid_arg "Generators.community_overlap: groups must be >= 1";
  let rng = Prng.create (seed + 606) in
  let size = (n + groups - 1) / groups in
  let edges = ref [] in
  (* Every member of a contiguous group connects to the same template
     neighbor list, so member rows are exact duplicates (Jaccard 1) up to
     the symmetrized back-edges. *)
  for g = 0 to groups - 1 do
    let lo = g * size in
    let hi = min n (lo + size) in
    if lo < hi then begin
      (* in-group targets: symmetrization only adds back-edges INTO the
         template rows, so every non-template member's row stays an exact
         duplicate of the template — the factoring's best case *)
      let template =
        Array.init degree (fun _ -> lo + Prng.int rng (hi - lo))
      in
      for i = lo to hi - 1 do
        Array.iter (fun t -> if i <> t then edges := (i, t) :: !edges) template
      done
    end
  done;
  Graph.of_edges
    ~name:(name_of "community_n%d_g%d_d%d" n groups degree)
    ~n !edges

let star ~n =
  Graph.of_edges ~name:(name_of "star_n%d" n) ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let ring ~n =
  Graph.of_edges ~name:(name_of "ring_n%d" n) ~n
    (List.init n (fun i -> (i, (i + 1) mod n)))

let complete ~n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Graph.of_edges ~name:(name_of "complete_n%d" n) ~n !edges
