type t = float array

let create n x = Array.make n x
let init = Array.init
let zeros n = create n 0.
let ones n = create n 1.
let dim = Array.length
let map = Array.map

let map2 f a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Vector.map2: dimension mismatch";
  Array.init n (fun i -> f a.(i) b.(i))

let add = map2 ( +. )
let sub = map2 ( -. )
let scale s = map (fun x -> s *. x)

let dot a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Vector.dot: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let sum v = Array.fold_left ( +. ) 0. v

let mean v =
  let n = Array.length v in
  if n = 0 then 0. else sum v /. float_of_int n

let max v =
  if Array.length v = 0 then invalid_arg "Vector.max: empty vector";
  Array.fold_left Float.max v.(0) v

let min v =
  if Array.length v = 0 then invalid_arg "Vector.min: empty vector";
  Array.fold_left Float.min v.(0) v

let variance v =
  let n = Array.length v in
  if n = 0 then 0.
  else begin
    let m = mean v in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let d = v.(i) -. m in
      acc := !acc +. (d *. d)
    done;
    !acc /. float_of_int n
  end

let std v = sqrt (variance v)
let norm2 v = sqrt (dot v v)
(* A direct loop: [map] with a closure would box every element. The
   [Degree] step runs this per served request and per training batch. *)
let pow p v =
  let out = Array.create_float (Array.length v) in
  for i = 0 to Array.length v - 1 do
    let x = v.(i) in
    out.(i) <- (if x = 0. then 0. else Float.pow x p)
  done;
  out

let inv_sqrt v = pow (-0.5) v

let equal_approx ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       for i = 0 to Array.length a - 1 do
         let d = Float.abs (a.(i) -. b.(i)) in
         let bound = eps *. Float.max 1. (Float.max (Float.abs a.(i)) (Float.abs b.(i))) in
         if d > bound then ok := false
       done;
       !ok
     end

let pp ppf v =
  Format.fprintf ppf "[|%a|]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf x -> Format.fprintf ppf "%g" x))
    (Array.to_list v)
