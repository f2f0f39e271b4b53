module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace
module Dense = Granii_tensor.Dense
module Csr = Granii_sparse.Csr
module Reorder = Granii_graph.Reorder

module Obs = Granii_obs.Obs

type config = {
  threads : int;
  workspace : bool;
  cache : bool;
  locality : Locality.config;
  keep_intermediates : bool;
  calibration : Cost_oracle.calibration;
}

let default_config =
  { threads = 1;
    workspace = false;
    cache = false;
    locality = Locality.default;
    keep_intermediates = true;
    calibration = Cost_oracle.Off }

type error =
  | Invalid_threads of int
  | Cache_with_locality of Locality.config
  | Workspace_cache_discard
  | Cache_graph_mismatch of { expected : string; got : string }
  | Invalid_format of string
  | Bsr_with_reorder of Locality.config

exception Error of error

let error_to_string = function
  | Invalid_threads t -> Printf.sprintf "engine: threads must be >= 1 (got %d)" t
  | Cache_with_locality c ->
      Printf.sprintf
        "engine: the subtree cache cannot be combined with locality %s \
         (cached values would live in a permuted vertex id space)"
        (Locality.config_to_string c)
  | Workspace_cache_discard ->
      "engine: workspace + cache requires keep_intermediates (with liveness \
       recycling the arena reclaims buffers mid-run, before cache insertion \
       can pin them)"
  | Cache_graph_mismatch { expected; got } ->
      Printf.sprintf
        "engine: the subtree cache is bound to graph %s but was used with \
         graph %s (cached values are only valid for one (graph, bindings) \
         pair)"
        expected got
  | Invalid_format f ->
      Printf.sprintf
        "engine: unknown sparse format %s (expected csr, hybrid, bsr or cbm)"
        f
  | Bsr_with_reorder c ->
      Printf.sprintf
        "engine: the bsr format cannot be combined with ordering %s (tiles \
         accumulate in column-sorted order, but reordered matrices keep \
         source entry order — the bitwise contract would break)"
        (Granii_graph.Reorder.strategy_to_string c.Locality.strategy)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Engine.Error: " ^ error_to_string e)
    | _ -> None)

(* ---- shared-subtree execution cache ----

   Keyed by [Plan.step.skey], the association tree's structural CSE key, so
   a value computed while executing one candidate plan is recognized by
   every other candidate of the same model that contains the same subtree —
   the GAT reuse-vs-recompute structure. The cache carries a fingerprint of
   the first graph it runs against and refuses any other (the bindings half
   of the (graph, bindings) validity contract remains the caller's). *)

type cache = {
  tbl : (string, Dispatch.value * float) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable bound : Granii_graph.Graph.t option;
      (* the first graph bound; compared by [Graph.fingerprint] *)
}

let cache_create () =
  { tbl = Hashtbl.create 64; cache_hits = 0; cache_misses = 0; bound = None }

let cache_stats c = (c.cache_hits, c.cache_misses)

let cache_bind_graph c (g : Granii_graph.Graph.t) =
  match c.bound with
  | None -> c.bound <- Some g
  | Some g0 ->
      let fp = Granii_graph.Graph.fingerprint in
      if not (String.equal (fp g0) (fp g)) then
        raise
          (Error
             (Cache_graph_mismatch
                { expected = g0.Granii_graph.Graph.name;
                  got = g.Granii_graph.Graph.name }))

let cache_find c key =
  match Hashtbl.find_opt c.tbl key with
  | Some _ as hit ->
      c.cache_hits <- c.cache_hits + 1;
      hit
  | None ->
      c.cache_misses <- c.cache_misses + 1;
      None

(* Epoch-pinning: when the engine also has a workspace arena, a cached value
   must not alias an arena buffer — the next run's reclaim would recycle it
   underneath the cache. Inserting a copy (only of the float backing; int
   structure arrays are aliasing-safe) pins the entry across epochs. That
   copy is the documented cost of legalizing workspace x cache: one extra
   allocation per cache {e miss}, amortized across every later hit. *)
let pin_value v =
  match v with
  | Dispatch.Vdense d ->
      Dispatch.Vdense
        (Dense.of_flat ~rows:d.Dense.rows ~cols:d.Dense.cols (Array.copy d.Dense.data))
  | Dispatch.Vsparse s -> (
      match s.Csr.values with
      | None -> v
      | Some vals -> Dispatch.Vsparse (Csr.with_values s (Array.copy vals)))
  | Dispatch.Vdiag d -> Dispatch.Vdiag (Array.copy d)

(* ---- the engine ---- *)

type t = {
  cfg : config;
  pool : Parallel.t option;
  owns_pool : bool;
  ws : Workspace.t option;
  cache_ : cache option;
  obs : Obs.t;
  oracle : Cost_oracle.t;
}

let validate (cfg : config) =
  if cfg.threads < 1 then Some (Invalid_threads cfg.threads)
  else if cfg.cache && not (Locality.is_default cfg.locality) then
    Some (Cache_with_locality cfg.locality)
  else if not (Locality.legal cfg.locality) then
    Some (Bsr_with_reorder cfg.locality)
  else if cfg.workspace && cfg.cache && not cfg.keep_intermediates then
    Some Workspace_cache_discard
  else None

let create ?pool ?workspace ?cache ?obs ?oracle (cfg : config) =
  (* normalize the config to the resources actually present, so [describe]
     is truthful when resources are injected *)
  let cfg =
    { cfg with
      threads = (match pool with Some p -> Parallel.threads p | None -> cfg.threads);
      workspace = cfg.workspace || workspace <> None;
      cache = cfg.cache || cache <> None;
      calibration =
        (match oracle with
        | Some o -> Cost_oracle.calibration o
        | None -> cfg.calibration) }
  in
  match validate cfg with
  | Some e -> Result.error e
  | None ->
      let pool, owns_pool =
        match pool with
        | Some p -> (Some p, false)
        | None ->
            if cfg.threads > 1 then (Some (Parallel.create ~threads:cfg.threads ()), true)
            else (None, false)
      in
      let ws =
        match workspace with
        | Some _ as w -> w
        | None -> if cfg.workspace then Some (Workspace.create ()) else None
      in
      let cache_ =
        match cache with
        | Some _ as c -> c
        | None -> if cfg.cache then Some (cache_create ()) else None
      in
      let obs = Option.value obs ~default:Obs.disabled in
      let oracle =
        match oracle with
        | Some o -> o
        | None ->
            (* the calibration feed is the live monitor when the sink has
               one, so execution telemetry and the oracle see one pair store *)
            Cost_oracle.of_model ~calibration:cfg.calibration ~obs
              ?monitor:obs.Obs.costmon
              (Cost_model.analytic Granii_hw.Hw_profile.cpu)
      in
      Result.ok { cfg; pool; owns_pool; ws; cache_; obs; oracle }

let create_exn ?pool ?workspace ?cache ?obs ?oracle cfg =
  match create ?pool ?workspace ?cache ?obs ?oracle cfg with
  | Ok t -> t
  | Error e -> raise (Error e)

let default () = create_exn default_config

let config t = t.cfg
let threads t = t.cfg.threads
let pool t = t.pool
let workspace t = t.ws
let cache t = t.cache_
let locality t = t.cfg.locality
let keep_intermediates t = t.cfg.keep_intermediates
let obs t = t.obs
let oracle t = t.oracle
let calibration t = t.cfg.calibration

let shutdown t = if t.owns_pool then Option.iter Parallel.shutdown t.pool

let cache_insert t key v time =
  match t.cache_ with
  | None -> ()
  | Some c ->
      let v = if t.ws <> None then pin_value v else v in
      Hashtbl.replace c.tbl key (v, time)

(* ---- rendering / parsing (the CLI's --engine surface) ---- *)

let onoff = function true -> "on" | false -> "off"

let describe_config (cfg : config) =
  Printf.sprintf
    "threads=%d,workspace=%s,cache=%s,locality=%s,intermediates=%s,calibration=%s"
    cfg.threads (onoff cfg.workspace) (onoff cfg.cache)
    (Locality.config_to_string cfg.locality)
    (if cfg.keep_intermediates then "keep" else "drop")
    (Cost_oracle.calibration_to_string cfg.calibration)

let describe t = describe_config t.cfg

let parse_flag key v =
  match v with
  | "on" | "true" | "1" -> Ok true
  | "off" | "false" | "0" -> Ok false
  | _ -> Error (Printf.sprintf "engine spec: %s expects on|off (got %s)" key v)

let parse_locality v =
  match String.split_on_char '+' v with
  | [ s; f ] -> (
      match Reorder.strategy_of_string s with
      | None ->
          Result.Error
            (Printf.sprintf
               "engine spec: locality expects <identity|degree|bfs|rcm>+<csr|hybrid|bsr|cbm> (got %s)"
               v)
      | Some strategy -> (
          match Locality.format_of_string f with
          | Some format -> Ok { Locality.strategy; format }
          (* unknown format names get the typed error so callers can
             distinguish a bad format axis from general spec noise *)
          | None -> Error (error_to_string (Invalid_format f))))
  | _ ->
      Error
        (Printf.sprintf
           "engine spec: locality expects <strategy>+<format> (got %s)" v)

let config_of_string s =
  let ( let* ) = Result.bind in
  let fields =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  List.fold_left
    (fun acc field ->
      let* cfg = acc in
      match String.index_opt field '=' with
      | None when field = "default" -> Ok cfg
      | None ->
          Error
            (Printf.sprintf "engine spec: expected key=value (got %s)" field)
      | Some i -> (
          let key = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          match key with
          | "threads" -> (
              match int_of_string_opt v with
              | Some t -> Ok { cfg with threads = t }
              | None ->
                  Error
                    (Printf.sprintf "engine spec: threads expects an integer (got %s)" v))
          | "workspace" ->
              let* b = parse_flag key v in
              Ok { cfg with workspace = b }
          | "cache" ->
              let* b = parse_flag key v in
              Ok { cfg with cache = b }
          | "locality" ->
              let* l = parse_locality v in
              Ok { cfg with locality = l }
          | "intermediates" -> (
              match v with
              | "keep" -> Ok { cfg with keep_intermediates = true }
              | "drop" -> Ok { cfg with keep_intermediates = false }
              | _ ->
                  Error
                    (Printf.sprintf
                       "engine spec: intermediates expects keep|drop (got %s)" v))
          | "calibration" -> (
              match Cost_oracle.calibration_of_string v with
              | Some c -> Ok { cfg with calibration = c }
              | None ->
                  Error
                    (Printf.sprintf
                       "engine spec: calibration expects off|affine (got %s)"
                       v))
          | _ -> Error (Printf.sprintf "engine spec: unknown key %s" key)))
    (Ok default_config) fields
