(* One clock: CLOCK_MONOTONIC in nanoseconds, read as float seconds. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let measure_wall f =
  let t0 = wall () in
  let x = f () in
  let t1 = wall () in
  (x, t1 -. t0)

let measure_n_wall ?(warmup = 1) ~n f =
  if n <= 0 then invalid_arg "Timer.measure_n_wall: n must be positive";
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t0 = wall () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let t1 = wall () in
  (t1 -. t0) /. float_of_int n
