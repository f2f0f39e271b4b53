(* Shared infrastructure for the paper-reproduction benches. *)

open Granii_core
module Hw = Granii_hw
module Mp = Granii_mp
module Sys_ = Granii_systems
module G = Granii_graph
module Gnn = Granii_gnn

let profiles = [ Hw.Hw_profile.h100; Hw.Hw_profile.a100; Hw.Hw_profile.cpu ]
let gpu_profiles = [ Hw.Hw_profile.h100; Hw.Hw_profile.a100 ]
let systems = [ Sys_.System.wisegraph; Sys_.System.dgl ]

(* Embedding-size grid: square sizes plus shrinking and growing pairs, the
   paper's 32..2048 span (Sec. VI-B). *)
let square_pairs = [ (32, 32); (256, 256); (1024, 1024) ]
let shrinking_pairs = [ (512, 64); (2048, 256) ]
let growing_pairs = [ (64, 512); (256, 2048); (1024, 2048) ]
let all_pairs = square_pairs @ shrinking_pairs @ growing_pairs

(* Smoke mode (driver's [--smoke], the @bench-smoke alias): every section
   runs one tiny configuration — first dataset, one embedding pair, analytic
   cost models instead of the GBRT fit — so the perf plumbing is exercised
   without the full sweeps. *)
let smoke = ref false

(* GAT is evaluated only on increasing sizes (Sec. VI-B). *)
let pairs_for (m : Mp.Mp_ast.model) =
  let pairs = if m.Mp.Mp_ast.attention then growing_pairs else all_pairs in
  if !smoke then [ List.hd pairs ] else pairs

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

let env_of graph ~k_in ~k_out =
  let n = G.Graph.n_nodes graph in
  { Dim.n; nnz = G.Graph.n_edges graph + n; k_in; k_out }

(* Thread count for the real-execution benches ([micro], [real]); set by the
   driver's [--threads N] flag. The simulated-profile benches are unaffected
   except where they featurize with it explicitly. *)
let threads = ref 1

(* Telemetry sink for the real-execution sections; [Obs.disabled] unless the
   driver's [--trace]/[--metrics] flags enabled it, so passing
   [~obs:!Bench_common.obs] into an engine is always safe. *)
let obs = ref Granii_obs.Obs.disabled

(* [None] while [!threads <= 1]; otherwise the shared process-wide pool. *)
let pool () = Hw.Domain_pool.for_threads !threads

(* ---- caches: everything below is built once per bench process ---- *)

let cost_model_cache : (string, Cost_model.t) Hashtbl.t = Hashtbl.create 4

let cost_model profile =
  if !smoke then Cost_model.analytic profile
  else
    let key = profile.Hw.Hw_profile.name in
    match Hashtbl.find_opt cost_model_cache key with
    | Some cm -> cm
    | None ->
        let data = Profiling.collect ~profile () in
        let cm = Cost_model.train ~profile data in
        Hashtbl.add cost_model_cache key cm;
        cm

(* The oracle over a profile's cached base model. *)
let oracle profile = Cost_oracle.of_model (cost_model profile)

let compiled_cache : (string, Mp.Lower.lowered * Codegen.t * Granii.offline_stats) Hashtbl.t =
  Hashtbl.create 16

let compiled (m : Mp.Mp_ast.model) ~binned =
  let key = Printf.sprintf "%s/%b" m.Mp.Mp_ast.name binned in
  match Hashtbl.find_opt compiled_cache key with
  | Some c -> c
  | None ->
      let low = Mp.Lower.lower m in
      let c, stats =
        Granii.compile ~name:m.Mp.Mp_ast.name
          ~degree_leaves:(Mp.Lower.degree_leaves low ~binned)
          low.Mp.Lower.ir
      in
      Hashtbl.add compiled_cache key (low, c, stats);
      (low, c, stats)

let baseline_cache : (string, Sys_.Baseline.t) Hashtbl.t = Hashtbl.create 16

let baseline sys (m : Mp.Mp_ast.model) =
  let key = sys.Sys_.System.sys_name ^ "/" ^ m.Mp.Mp_ast.name in
  match Hashtbl.find_opt baseline_cache key with
  | Some b -> b
  | None ->
      let b = Sys_.Baseline.make sys m in
      Hashtbl.add baseline_cache key b;
      b

let feats_cache : (string, Featurizer.t) Hashtbl.t = Hashtbl.create 8

let feats graph =
  let key = graph.G.Graph.name in
  match Hashtbl.find_opt feats_cache key with
  | Some f -> f
  | None ->
      let f = Featurizer.extract graph in
      Hashtbl.add feats_cache key f;
      f

let datasets () =
  let all = if !smoke then [ List.hd G.Datasets.all ] else G.Datasets.all in
  List.map (fun d -> (d, G.Datasets.load d)) all

type mode = Inference | Training

let mode_name = function Inference -> "I" | Training -> "T"

(* Total simulated time of a plan on a profile: inference or training
   (training adds the default backward, which GRANII does not optimize). *)
let plan_time ~mode ~profile ~graph ~env ?(iterations = 100) plan =
  match mode with
  | Inference -> Gnn.Trainer.inference_time ~profile ~graph ~env ~iterations plan
  | Training -> Gnn.Trainer.training_time ~profile ~graph ~env ~iterations plan

(* GRANII's end-to-end time for one setting: select with the learned cost
   models, run the chosen plan, charge the simulated one-time overhead. *)
let granii_time ~mode ~profile ~sys ~(model : Mp.Mp_ast.model) ~graph ~k_in ~k_out
    ?(iterations = 100) () =
  let _, comp, _ = compiled model ~binned:sys.Sys_.System.binned_degrees in
  let env = env_of graph ~k_in ~k_out in
  let choice =
    Selector.select ~oracle:(oracle profile) ~feats:(feats graph) ~env
      ~iterations comp
  in
  let plan = choice.Selector.candidate.Codegen.plan in
  plan_time ~mode ~profile ~graph ~env ~iterations plan
  +. Granii.simulated_overhead ~profile ~env

let baseline_time ~mode ~profile ~sys ~model ~graph ~k_in ~k_out ?(iterations = 100) () =
  let b = baseline sys model in
  let env = env_of graph ~k_in ~k_out in
  plan_time ~mode ~profile ~graph ~env ~iterations (Sys_.Baseline.plan b ~k_in ~k_out)

let speedup ~mode ~profile ~sys ~model ~graph ~k_in ~k_out ?(iterations = 100) () =
  baseline_time ~mode ~profile ~sys ~model ~graph ~k_in ~k_out ~iterations ()
  /. granii_time ~mode ~profile ~sys ~model ~graph ~k_in ~k_out ~iterations ()

(* ---- machine-readable output ---- *)

(* Rows for the driver's [--json FILE] dump: each bench can record flat
   records (numbers, strings, bools); the memory section uses this to emit
   per-iteration Gc allocation stats next to the time numbers, so future
   changes can track an allocation trajectory alongside the time one. *)
type json_value = F of float | I of int | S of string | B of bool

let json_rows : (string * (string * json_value) list) list ref = ref []

let json_add ~bench fields = json_rows := (bench, fields) :: !json_rows

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_write path =
  let oc = open_out path in
  let pv = function
    | F x ->
        if Float.is_finite x then Printf.sprintf "%.9g" x
        else Printf.sprintf "\"%s\"" (string_of_float x)
    | I i -> string_of_int i
    | S s -> Printf.sprintf "\"%s\"" (json_escape s)
    | B b -> string_of_bool b
  in
  let row (bench, fields) =
    let fields = ("bench", S bench) :: fields in
    "  {"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (json_escape k) (pv v)) fields)
    ^ "}"
  in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" (List.rev_map row !json_rows));
  output_string oc "\n]\n";
  close_out oc

(* ---- formatting ---- *)

let hr () = print_endline (String.make 78 '-')

let section title =
  print_newline ();
  print_endline (String.make 78 '=');
  Printf.printf "%s\n" title;
  print_endline (String.make 78 '=')

let ms t = t *. 1000.
