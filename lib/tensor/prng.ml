(* The SplitMix64 state lives in 8 bytes, read and written with the
   unboxed [Bytes] int64 primitives: a [mutable state : int64] field would
   allocate a boxed int64 on every draw. [mix] and [int64] are inlined, so a
   draw's arithmetic stays in registers from load to store. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state z =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 z;
  t

let create seed = of_state (mix (Int64.of_int (seed * 2654435761 + 12345)))

let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  mix z

let split t = of_state (mix (int64 t))

let float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.

let uniform t lo hi = lo +. ((hi -. lo) *. float t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bound is always far below 2^63 so
     the bias is negligible for simulation purposes. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound))

let bool t p = float t < p

let normal t =
  let u1 = Float.max 1e-300 (float t) in
  let u2 = float t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Up to this many draws, the sparse regime tests membership by a linear
   scan instead of a hash set: a neighbor-sampling fanout draws a handful. *)
let small_sample = 32

let sample_without_replacement t k n =
  if k >= n then begin
    let all = Array.init n (fun i -> i) in
    shuffle_in_place t all;
    all
  end
  else if k * 3 > n then begin
    (* Dense regime: partial Fisher-Yates over the full range. *)
    let all = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    Array.sub all 0 k
  end
  else if k <= small_sample then begin
    (* Sparse regime, few draws: rejection sampling with a linear scan of
       the values drawn so far, which for a handful of them is cheaper than
       a hash set. It accepts and rejects exactly the draws the hash set
       would, so the output is the same. *)
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let x = int t n in
      let fresh = ref true and i = ref 0 in
      while !fresh && !i < !filled do
        if Array.unsafe_get out !i = x then fresh := false;
        incr i
      done;
      if !fresh then begin
        out.(!filled) <- x;
        incr filled
      end
    done;
    out
  end
  else begin
    (* Sparse regime: rejection sampling into a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let x = int t n in
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        out.(!filled) <- x;
        incr filled
      end
    done;
    out
  end
