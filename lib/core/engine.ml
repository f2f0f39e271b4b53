module Parallel = Granii_tensor.Parallel
module Workspace = Granii_tensor.Workspace

module Obs = Granii_obs.Obs

type config = {
  threads : int;
  locality : Locality.config;
  keep_intermediates : bool;
}

let default_config =
  { threads = 1;
    locality = Locality.default;
    keep_intermediates = true }

type error = Invalid_threads of int

exception Error of error

let error_to_string = function
  | Invalid_threads t -> Printf.sprintf "engine: threads must be >= 1 (got %d)" t

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
}

let validate (cfg : config) =
  if cfg.threads < 1 then Some (Invalid_threads cfg.threads) else None

let create ?pool ?workspace ?obs (cfg : config) =
  (* normalize the config to the pool actually present, so [describe] is
     truthful when one is injected *)
  let cfg =
    match pool with
    | Some p -> { cfg with threads = Parallel.threads p }
    | None -> cfg
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
      Result.ok { cfg; pool; owns_pool; ws; obs }

let create_exn ?pool ?workspace ?obs cfg =
  match create ?pool ?workspace ?obs cfg with
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

let shutdown t = if t.owns_pool then Option.iter Parallel.shutdown t.pool

(* ---- rendering / parsing (the CLI's --engine surface) ---- *)

let describe_config (cfg : config) =
  Printf.sprintf "threads=%d,intermediates=%s" cfg.threads
    (if cfg.keep_intermediates then "keep" else "drop")

let describe t = describe_config t.cfg

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
              | Some t when t >= 1 -> Ok { cfg with threads = t }
              | Some t -> Error (error_to_string (Invalid_threads t))
              | None ->
                  Error
                    (Printf.sprintf "engine spec: threads expects an integer (got %s)" v))
          | "intermediates" -> (
              match v with
              | "keep" -> Ok { cfg with keep_intermediates = true }
              | "drop" -> Ok { cfg with keep_intermediates = false }
              | _ ->
                  Error
                    (Printf.sprintf
                       "engine spec: intermediates expects keep|drop (got %s)" v))
          | _ -> Error (Printf.sprintf "engine spec: unknown key %s" key)))
    (Ok default_config) fields
