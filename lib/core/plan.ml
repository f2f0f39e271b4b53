type degree_spec = { binned : bool; power : Primitive.degree_power }

type phase = Setup | Per_iteration

type source = Input of string | Computed of int

type step = {
  idx : int;
  prim : Primitive.t;
  args : source list;
  phase : phase;
}

type t = {
  steps : step list;
  output : source;
  name : string;
}

let of_tree ?(hoist = true) ?(degree_leaves = []) ~name tree =
  let ops = Assoc_tree.ops tree in
  (* Assign indices leaving room for degree-producing steps in front. *)
  let used_degree_leaves =
    List.filter
      (fun (leaf_name, _) ->
        List.exists
          (fun (l : Matrix_ir.leaf) -> String.equal l.Matrix_ir.name leaf_name)
          (Assoc_tree.leaves tree))
      degree_leaves
  in
  let degree_steps =
    List.mapi
      (fun i (leaf_name, spec) ->
        ( leaf_name,
          { idx = i;
            prim = Primitive.Degree { binned = spec.binned; power = spec.power };
            args = [ Input "__graph__" ];
            phase = (if hoist then Setup else Per_iteration) } ))
      used_degree_leaves
  in
  let offset = List.length degree_steps in
  let index_of_key = Hashtbl.create 16 in
  List.iteri
    (fun i (o : Assoc_tree.op) -> Hashtbl.add index_of_key o.Assoc_tree.okey (i + offset))
    ops;
  let source_of_node node =
    match node with
    | Assoc_tree.Leaf l -> (
        let lname = l.Matrix_ir.name in
        match List.assoc_opt lname degree_steps with
        | Some s -> Computed s.idx
        | None -> Input lname)
    | Assoc_tree.Op o -> Computed (Hashtbl.find index_of_key o.Assoc_tree.okey)
  in
  let op_steps =
    List.mapi
      (fun i (o : Assoc_tree.op) ->
        let graph_only =
          Assoc_tree.is_graph_only (Assoc_tree.Op o)
        in
        { idx = i + offset;
          prim = o.Assoc_tree.prim;
          args = List.map source_of_node o.Assoc_tree.args;
          phase = (if hoist && graph_only then Setup else Per_iteration) })
      ops
  in
  let steps = List.map snd degree_steps @ op_steps in
  let output = source_of_node tree.Assoc_tree.root in
  { steps; output; name }

let primitives p = List.map (fun s -> s.prim) p.steps

let setup_steps p = List.filter (fun s -> s.phase = Setup) p.steps

let iteration_steps p = List.filter (fun s -> s.phase = Per_iteration) p.steps

let input_names p =
  let names = ref [] in
  List.iter
    (fun s ->
      List.iter
        (function
          | Input n when (not (String.equal n "__graph__")) && not (List.mem n !names)
            ->
              names := n :: !names
          | Input _ | Computed _ -> ())
        s.args)
    p.steps;
  List.rev !names

let pp_source ppf = function
  | Input n -> Format.fprintf ppf "%s" n
  | Computed i -> Format.fprintf ppf "t%d" i

let pp ppf p =
  Format.fprintf ppf "@[<v>plan %s:@," p.name;
  List.iter
    (fun s ->
      Format.fprintf ppf "  t%d = %a(%a)%s@," s.idx Primitive.pp s.prim
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           pp_source)
        s.args
        (match s.phase with Setup -> "  [setup]" | Per_iteration -> ""))
    p.steps;
  Format.fprintf ppf "  return %a@]" pp_source p.output
