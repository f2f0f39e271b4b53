module Dense = Granii_tensor.Dense
module Prng = Granii_tensor.Prng
module Timer = Granii_hw.Timer
module G = Granii_graph
module Core = Granii_core

type batch = {
  epoch : int;
  index : int;
  sample : G.Sampling.layered;
  feats : Core.Featurizer.t;
  features : Dense.t;
  labels : int array;
  mask : bool array;
  sample_time : float;
  featurize_time : float;
}

type mode = Sequential | Pipelined

let mode_to_string = function
  | Sequential -> "sequential"
  | Pipelined -> "pipelined"

type t = {
  mode : mode;
  total : int;
  per_epoch : int;
  prepare : int -> batch;
  mutable consumed : int;
  mutable stall : float;
  (* pipelined state: a one-deep (double-buffered) hand-off slot *)
  m : Mutex.t;
  cv : Condition.t;
  mutable slot : batch option;
  mutable stopping : bool;
  mutable worker : unit Domain.t option;
}

(* The content of batch [k] is a pure function of (seed, masked node set,
   fanouts, batch_size, k): both loader arms — and any thread count —
   produce bitwise-identical batches. *)
let make_prepare ~seed ~fanouts ~batch_size ~threads ~graph ~features ~labels
    ~seed_nodes ~per_epoch =
  let cached_epoch = ref (-1) in
  let cached_order = ref [||] in
  (* only the preparing domain calls [prepare], so the epoch-order cache and
     the sampler's scratch are single-owner state *)
  let scratch = G.Sampling.scratch () in
  let epoch_order epoch =
    if !cached_epoch <> epoch then begin
      let order = Array.copy seed_nodes in
      Prng.shuffle_in_place (Prng.create (seed + (7919 * (epoch + 1)))) order;
      cached_epoch := epoch;
      cached_order := order
    end;
    !cached_order
  in
  fun k ->
    let epoch = k / per_epoch and index = k mod per_epoch in
    let order = epoch_order epoch in
    let m = Array.length order in
    let lo = index * batch_size in
    let seeds = Array.sub order lo (min batch_size (m - lo)) in
    let batch_seed =
      seed lxor (((epoch + 1) * 0x3779fb) + ((index + 1) * 0x9e37))
    in
    let sample, sample_time =
      Timer.measure_wall (fun () ->
          G.Sampling.layered_fanout ~scratch ~seed:batch_seed ~fanouts ~seeds
            graph)
    in
    let (feats, bfeatures, blabels, bmask), featurize_time =
      Timer.measure_wall (fun () ->
          let nodes = sample.G.Sampling.nodes in
          let n_sub = Array.length nodes in
          (* one row blit per sampled node: rows are contiguous in the
             row-major store *)
          let cols = features.Dense.cols in
          let data = Array.create_float (n_sub * cols) in
          Array.iteri
            (fun i oi ->
              Array.blit features.Dense.data (oi * cols) data (i * cols) cols)
            nodes;
          let bfeatures = Dense.of_flat ~rows:n_sub ~cols data in
          let blabels = Array.map (fun oi -> labels.(oi)) nodes in
          let bmask =
            Array.init n_sub (fun i -> i < sample.G.Sampling.n_seeds)
          in
          let sub = sample.G.Sampling.subgraph in
          let feats = Core.Featurizer.extract ~threads sub in
          (* built here on the loader domain and memoized on the
             subgraph, so the training domain finds them ready *)
          G.Graph.build_plan_operands sub;
          (feats, bfeatures, blabels, bmask))
    in
    { epoch;
      index;
      sample;
      feats;
      features = bfeatures;
      labels = blabels;
      mask = bmask;
      sample_time;
      featurize_time }

let worker_loop t =
  let rec go k =
    if k < t.total then begin
      let b = t.prepare k in
      Mutex.lock t.m;
      while t.slot <> None && not t.stopping do
        Condition.wait t.cv t.m
      done;
      if t.stopping then Mutex.unlock t.m
      else begin
        t.slot <- Some b;
        Condition.broadcast t.cv;
        Mutex.unlock t.m;
        go (k + 1)
      end
    end
  in
  go 0

let create ?(seed = 0) ?mask ?(threads = 1) ~mode ~fanouts ~batch_size
    ~epochs ~graph ~features ~labels () =
  if batch_size < 1 then invalid_arg "Loader.create: batch_size must be >= 1";
  if epochs < 1 then invalid_arg "Loader.create: epochs must be >= 1";
  if fanouts = [] || List.exists (fun f -> f <= 0) fanouts then
    invalid_arg "Loader.create: fanouts must be non-empty and positive";
  let n = G.Graph.n_nodes graph in
  if features.Dense.rows <> n then
    invalid_arg "Loader.create: feature rows must match the graph";
  if Array.length labels <> n then
    invalid_arg "Loader.create: labels length must match the graph";
  let seed_nodes =
    match mask with
    | None -> Array.init n (fun i -> i)
    | Some m ->
        if Array.length m <> n then
          invalid_arg "Loader.create: mask length must match the graph";
        let ids = ref [] in
        for i = n - 1 downto 0 do
          if m.(i) then ids := i :: !ids
        done;
        Array.of_list !ids
  in
  if Array.length seed_nodes = 0 then
    invalid_arg "Loader.create: no seed nodes (all-false mask)";
  let per_epoch = (Array.length seed_nodes + batch_size - 1) / batch_size in
  let prepare =
    make_prepare ~seed ~fanouts ~batch_size ~threads ~graph ~features ~labels
      ~seed_nodes ~per_epoch
  in
  let t =
    { mode;
      total = epochs * per_epoch;
      per_epoch;
      prepare;
      consumed = 0;
      stall = 0.;
      m = Mutex.create ();
      cv = Condition.create ();
      slot = None;
      stopping = false;
      worker = None }
  in
  (match mode with
  | Sequential -> ()
  | Pipelined -> t.worker <- Some (Domain.spawn (fun () -> worker_loop t)));
  t

let batches_per_epoch t = t.per_epoch

let total_batches t = t.total

let stall_time t = t.stall

let next t =
  if t.consumed >= t.total then None
  else
    let b =
      match t.mode with
      | Sequential -> t.prepare t.consumed
      | Pipelined ->
          let t0 = Timer.wall () in
          Mutex.lock t.m;
          while t.slot = None do
            Condition.wait t.cv t.m
          done;
          let b = Option.get t.slot in
          t.slot <- None;
          Condition.broadcast t.cv;
          Mutex.unlock t.m;
          t.stall <- t.stall +. (Timer.wall () -. t0);
          b
    in
    t.consumed <- t.consumed + 1;
    Some b

let shutdown t =
  match t.worker with
  | None -> ()
  | Some d ->
      Mutex.lock t.m;
      t.stopping <- true;
      t.slot <- None;
      Condition.broadcast t.cv;
      Mutex.unlock t.m;
      Domain.join d;
      t.worker <- None
