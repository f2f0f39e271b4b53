(* Per-primitive dispatch time and roofline placement of executed plan
   steps. Flops and bytes of each step are computed from the kernel model
   ([Primitive.to_kernels] + [Kernel_model.flops] / [bytes_streamed] /
   [bytes_random]), not measured; the peaks are the host's probed
   single-core rates, scaled by the engine's thread count. A step's bound is
   [max (flops / peak_flops, streamed / stream_bw + random / random_bw)] per
   kernel, and its headroom is measured time over that bound. *)

module Primitive = Granii_core.Primitive
module Plan = Granii_core.Plan
module K = Granii_hw.Kernel_model
module Calibrate = Granii_hw.Calibrate

(* The fourteen [Primitive.t] kinds, named by constructor. *)
let kind_of : Primitive.t -> string = function
  | Gemm _ -> "gemm"
  | Spmm _ -> "spmm"
  | Dense_sparse_mm _ -> "dspmm"
  | Sddmm_rank1 -> "sddmm_rank1"
  | Diag_scale _ -> "diag_scale"
  | Row_broadcast _ -> "row_broadcast"
  | Col_broadcast _ -> "col_broadcast"
  | Diag_combine -> "diag_combine"
  | Sparse_add _ -> "sparse_add"
  | Dense_add _ -> "dense_add"
  | Edge_score _ -> "edge_score"
  | Edge_softmax -> "edge_softmax"
  | Dense_map _ -> "dense_map"
  | Degree _ -> "degree"

let kinds =
  [ "gemm"; "spmm"; "dspmm"; "sddmm_rank1"; "diag_scale"; "row_broadcast";
    "col_broadcast"; "diag_combine"; "sparse_add"; "dense_add"; "edge_score";
    "edge_softmax"; "dense_map"; "degree" ]

let bound_s (peaks : Calibrate.measurement) ~threads env prim =
  let t = float_of_int threads in
  List.fold_left
    (fun acc k ->
      let peak =
        if K.is_dense_compute k then peaks.Calibrate.dense_gflops
        else peaks.Calibrate.sparse_gflops
      in
      let compute = K.flops k /. (peak *. 1e9 *. t) in
      let memory =
        (K.bytes_streamed k /. (peaks.Calibrate.stream_gbps *. 1e9 *. t))
        +. (K.bytes_random k /. (peaks.Calibrate.random_gbps *. 1e9 *. t))
      in
      acc +. Float.max compute memory)
    0.
    (Primitive.to_kernels env prim)

type t = {
  peaks : Calibrate.measurement;
  measured : (string, float) Hashtbl.t;
  bound : (string, float) Hashtbl.t;
  mutable calls : int;  (** executor calls accumulated *)
}

let create peaks =
  { peaks; measured = Hashtbl.create 16; bound = Hashtbl.create 16; calls = 0 }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* Accumulate one executor report's steps. [per_step] holds each setup
   step's single run and each per-iteration step's last iteration, which is
   charged [iterations] times. *)
let add t ~threads ~env ~iterations per_step =
  t.calls <- t.calls + 1;
  List.iter
    (fun (prim, phase, secs) ->
      let w =
        match phase with
        | Plan.Setup -> 1.
        | Plan.Per_iteration -> float_of_int iterations
      in
      let k = kind_of prim in
      bump t.measured k (w *. secs);
      bump t.bound k (w *. bound_s t.peaks ~threads env prim))
    per_step

(* [dispatch.<kind>_ms] per executor call and [dispatch.<kind>_headroom];
   both [0.] for a kind no executed plan contains. *)
let metrics t =
  List.concat_map
    (fun k ->
      let get tbl = Option.value ~default:0. (Hashtbl.find_opt tbl k) in
      let measured = get t.measured and bound = get t.bound in
      [ Ledger.m ("dispatch." ^ k ^ "_ms") "ms"
          (1000. *. Ledger.ratio measured (float_of_int t.calls));
        Ledger.m ("dispatch." ^ k ^ "_headroom") "ratio"
          (Ledger.ratio measured bound) ])
    kinds
