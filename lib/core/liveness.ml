(* Liveness over straight-line plans.

   A plan is already in SSA-like form — step [i] defines value [t_i] exactly
   once and later steps read it by index — so liveness is a single scan. The
   executor runs setup steps first and per-iteration steps after, each in
   plan order, so "last" means last in that execution order: the last use of
   [t_i] is its reader executed latest; the plan output lives forever.
   [dead_after j] inverts that relation into "the values whose last reader
   is step [j]", which is what an executor consults to recycle buffers the
   moment a step retires. *)

type t = {
  n : int;
  last_use : int array;
  dead_after : int list array;
  output : int option;
  order : int array; (* step indices in execution order *)
}

let analyze (p : Plan.t) =
  let n = List.length p.steps in
  (* execution position: setup steps before every per-iteration step *)
  let rank = Array.make n 0 in
  List.iter
    (fun (s : Plan.step) ->
      rank.(s.Plan.idx) <-
        (match s.Plan.phase with
        | Plan.Setup -> s.Plan.idx
        | Plan.Per_iteration -> n + s.Plan.idx))
    p.Plan.steps;
  let last_use = Array.make n (-1) in
  List.iter
    (fun (s : Plan.step) ->
      List.iter
        (function
          | Plan.Computed i ->
              let u = last_use.(i) in
              if u < 0 || rank.(s.Plan.idx) > rank.(u) then
                last_use.(i) <- s.Plan.idx
          | Plan.Input _ -> ())
        s.Plan.args)
    p.Plan.steps;
  let output = match p.Plan.output with Plan.Computed i -> Some i | Plan.Input _ -> None in
  (match output with Some i -> last_use.(i) <- max_int | None -> ());
  let dead_after = Array.make n [] in
  Array.iteri
    (fun i lu ->
      if lu <> max_int then begin
        (* a value never read (and not the output) dies right after its own
           step; otherwise after its last reader *)
        let d = if lu < 0 then i else lu in
        dead_after.(d) <- i :: dead_after.(d)
      end)
    last_use;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> compare rank.(a) rank.(b)) order;
  { n; last_use; dead_after; output; order }

let last_use t i =
  if i < 0 || i >= t.n then invalid_arg "Liveness.last_use: index out of range";
  t.last_use.(i)

let dead_after t j =
  if j < 0 || j >= t.n then invalid_arg "Liveness.dead_after: index out of range";
  t.dead_after.(j)

let output t = t.output

let max_live t =
  (* simulate the execution order: value i is born at step i and dies after
     [last_use] — the high-water mark of simultaneously live values bounds
     the buffer count a recycling executor needs *)
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun i ->
      incr live;
      if !live > !peak then peak := !live;
      live := !live - List.length t.dead_after.(i))
    t.order;
  !peak

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  for i = 0 to t.n - 1 do
    (match t.last_use.(i) with
    | u when u = max_int -> Format.fprintf ppf "t%d: output@," i
    | u when u < 0 -> Format.fprintf ppf "t%d: unused@," i
    | u -> Format.fprintf ppf "t%d: last use t%d@," i u)
  done;
  Format.fprintf ppf "max live: %d@]" (max_live t)
