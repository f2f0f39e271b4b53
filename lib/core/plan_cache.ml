module Obs = Granii_obs.Obs
module Graph = Granii_graph.Graph

type key = {
  graph_fp : string;
  model : string;
  k_in : int;
  k_out : int;
  hw : string;
  threads : int;
}

type stats = { hits : int; misses : int; evictions : int }

type entry = {
  choice : Selector.localized_choice;
  mutable last_use : int;
}

type t = {
  capacity : int;
  tbl : (key, entry) Hashtbl.t;
  obs : Obs.t;
  prefix : string;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(obs = Obs.disabled) ?(metric_prefix = "serve.plan_cache")
    ~capacity () =
  if capacity < 0 then
    invalid_arg
      (Printf.sprintf "Plan_cache.create: capacity must be >= 0 (got %d)"
         capacity);
  { capacity;
    tbl = Hashtbl.create (max 16 capacity);
    obs;
    prefix = metric_prefix;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0 }

let capacity t = t.capacity

let length t = Hashtbl.length t.tbl

let find t key =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.last_use <- t.tick;
      t.hits <- t.hits + 1;
      Obs.count t.obs (t.prefix ^ ".hits") 1;
      (match t.obs.Obs.journal with
      | None -> ()
      | Some j ->
          Obs.Journal.record j Obs.Journal.Plan_cache_hit ~tag:key.model ~v:0.);
      Some e.choice
  | None ->
      t.misses <- t.misses + 1;
      Obs.count t.obs (t.prefix ^ ".misses") 1;
      (match t.obs.Obs.journal with
      | None -> ()
      | Some j ->
          Obs.Journal.record j Obs.Journal.Plan_cache_miss ~tag:key.model ~v:0.);
      None

let peek t key =
  Option.map (fun e -> e.choice) (Hashtbl.find_opt t.tbl key)

let evict_lru t =
  let victim = ref None in
  Hashtbl.iter
    (fun k e ->
      match !victim with
      | Some (_, age) when age <= e.last_use -> ()
      | _ -> victim := Some (k, e.last_use))
    t.tbl;
  match !victim with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1;
      Obs.count t.obs (t.prefix ^ ".evictions") 1

let add t key choice =
  if t.capacity > 0 then begin
    t.tick <- t.tick + 1;
    if (not (Hashtbl.mem t.tbl key)) && Hashtbl.length t.tbl >= t.capacity
    then evict_lru t;
    Hashtbl.replace t.tbl key { choice; last_use = t.tick }
  end

let stats t = { hits = t.hits; misses = t.misses; evictions = t.evictions }

(* ---- the shared keying policy ---- *)

let key_of ~graph_fp ~model ~k_in ~k_out ~hw ~threads ~locality:_ =
  { graph_fp; model = String.lowercase_ascii model; k_in; k_out; hw; threads }

(* Floor of log2, with ilog2 0 = 0: the bucket index of a count. *)
let ilog2 v =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 (max v 1)

let bucketed_fingerprint g =
  let n = Graph.n_nodes g in
  let nnz = Graph.n_edges g in
  (* average degree in half-steps: sampled mini-batches with the same
     fanout schedule land on the same rung, a denser or sparser graph
     family does not *)
  let dbucket =
    if n = 0 then 0
    else int_of_float (Float.round (2. *. float_of_int nnz /. float_of_int n))
  in
  Printf.sprintf "bkt:n2^%d:e2^%d:d%d" (ilog2 n) (ilog2 nnz) dbucket
