type hop = { node : int; input : Side.t; output : Side.t }

let trace_from net ~src =
  let topo = Net.topology net in
  let leaf = Topology.node_of_pe topo src in
  (* The signal enters the parent switch on the input of the child side. *)
  let rec step node (incoming : Side.t) hops =
    match Switch_config.output_of (Net.config net node) incoming with
    | None -> (List.rev hops, None)
    | Some output -> (
        let hops = { node; input = incoming; output } :: hops in
        match output with
        | Side.P ->
            if node = Topology.root then (List.rev hops, None)
            else
              step (Topology.parent topo node) (Topology.child_side topo node)
                hops
        | Side.L | Side.R ->
            let child =
              if Side.equal output Side.L then Topology.left topo node
              else Topology.right topo node
            in
            if Topology.is_leaf topo child then
              (List.rev hops, Some (Topology.pe_of_node topo child))
            else step child Side.P hops)
  in
  step (Topology.parent topo leaf) (Topology.child_side topo leaf) []

(* [trace_from]'s walk without the hop list.  On a binary net node ids
   are heap ids, so parents, sides and children are arithmetic. *)
let[@inline] side_of node = if node land 1 = 0 then Side.L else Side.R

let rec walk net ~leaves node (incoming : Side.t) =
  match Switch_config.output_of (Net.config net node) incoming with
  | None -> None
  | Some Side.P ->
      if node = Topology.root then None
      else walk net ~leaves (node lsr 1) (side_of node)
  | Some ((Side.L | Side.R) as output) ->
      let child = if Side.equal output Side.L then 2 * node else (2 * node) + 1 in
      if child >= leaves then Some (child - leaves)
      else walk net ~leaves child Side.P

let route net ~src =
  let topo = Net.topology net in
  if not (Topology.is_binary topo) then
    invalid_arg "Data_plane.route: not a binary net";
  let leaf = Topology.node_of_pe topo src in
  walk net ~leaves:(Topology.leaves topo) (leaf lsr 1) (side_of leaf)

(* Every output has exactly one driver, so the path into any port is
   unique and distinct sources never reach one destination, whatever the
   configuration: a collision needs a source listed twice.  Strictly
   increasing source lists — what every scheduler passes — therefore
   skip the check. *)
let rec increasing = function
  | a :: (b :: _ as rest) -> a < b && increasing rest
  | _ -> true

let check_collisions net sources =
  let rec go = function
    | a :: (b :: _ as rest) ->
        if a = b then
          match route net ~src:a with
          | Some dst ->
              invalid_arg
                (Printf.sprintf
                   "Data_plane.transfer: PEs %d and %d both deliver to %d" a
                   b dst)
          | None -> go rest
        else go rest
    | _ -> ()
  in
  go (List.sort compare sources)

let transfer net ~sources =
  if not (increasing sources) then check_collisions net sources;
  List.filter_map
    (fun src ->
      match route net ~src with
      | None -> None
      | Some dst ->
          Net.pe_deliver net ~pe:dst (Net.pe_out net ~pe:src);
          Some (src, dst))
    sources
