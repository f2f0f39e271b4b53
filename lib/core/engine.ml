module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace
module Reorder = Granii_graph.Reorder

module Obs = Granii_obs.Obs

type config = {
  threads : int;
  locality : Locality.config;
  keep_intermediates : bool;
  calibration : Cost_oracle.calibration;
}

let default_config =
  { threads = 1;
    locality = Locality.default;
    keep_intermediates = true;
    calibration = Cost_oracle.Off }

type error =
  | Invalid_threads of int
  | Invalid_format of string

exception Error of error

let error_to_string = function
  | Invalid_threads t -> Printf.sprintf "engine: threads must be >= 1 (got %d)" t
  | Invalid_format f ->
      Printf.sprintf
        "engine: unknown sparse format %s (expected csr or hybrid)" f

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Engine.Error: " ^ error_to_string e)
    | _ -> None)

(* ---- the engine ---- *)

type t = {
  cfg : config;
  pool : Parallel.t option;
  owns_pool : bool;
  ws : Workspace.t;
  obs : Obs.t;
  oracle : Cost_oracle.t;
}

let validate (cfg : config) =
  if cfg.threads < 1 then Some (Invalid_threads cfg.threads) else None

let create ?pool ?workspace ?obs ?oracle (cfg : config) =
  (* normalize the config to the resources actually present, so [describe]
     is truthful when resources are injected *)
  let cfg =
    { cfg with
      threads = (match pool with Some p -> Parallel.threads p | None -> cfg.threads);
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
        match workspace with Some w -> w | None -> Workspace.create ()
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
      Result.ok { cfg; pool; owns_pool; ws; obs; oracle }

let create_exn ?pool ?workspace ?obs ?oracle cfg =
  match create ?pool ?workspace ?obs ?oracle cfg with
  | Ok t -> t
  | Error e -> raise (Error e)

let default () = create_exn default_config

let config t = t.cfg
let threads t = t.cfg.threads
let pool t = t.pool
let workspace t = t.ws
let locality t = t.cfg.locality
let keep_intermediates t = t.cfg.keep_intermediates
let obs t = t.obs
let oracle t = t.oracle
let calibration t = t.cfg.calibration

let shutdown t = if t.owns_pool then Option.iter Parallel.shutdown t.pool

(* ---- rendering / parsing (the CLI's --engine surface) ---- *)

let describe_config (cfg : config) =
  Printf.sprintf "threads=%d,locality=%s,intermediates=%s,calibration=%s"
    cfg.threads
    (Locality.config_to_string cfg.locality)
    (if cfg.keep_intermediates then "keep" else "drop")
    (Cost_oracle.calibration_to_string cfg.calibration)

let describe t = describe_config t.cfg

let parse_locality v =
  match String.split_on_char '+' v with
  | [ s; f ] -> (
      match Reorder.strategy_of_string s with
      | None ->
          Result.Error
            (Printf.sprintf
               "engine spec: locality expects <identity|degree|bfs|rcm>+<csr|hybrid> (got %s)"
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
