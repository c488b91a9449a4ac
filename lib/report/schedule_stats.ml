type link_use = { node : int; dir : Cst.Compat.dir; rounds_used : int }

let link_utilization ?topo (sched : Padr.Schedule.t) =
  let topo =
    match topo with
    | Some t -> t
    | None -> Cst.Topology.create ~leaves:sched.leaves
  in
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (r : Padr.Schedule.round) ->
      List.iter
        (fun (src, dst) ->
          List.iter
            (fun link ->
              let cur = Option.value ~default:0 (Hashtbl.find_opt tbl link) in
              Hashtbl.replace tbl link (cur + 1))
            (Cst.Compat.link_footprint topo
               (Cst_comm.Comm.make ~src ~dst)))
        r.deliveries)
    sched.rounds;
  Hashtbl.fold
    (fun (node, dir) rounds_used acc -> { node; dir; rounds_used } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Int.compare b.rounds_used a.rounds_used with
         | 0 -> compare (a.node, a.dir) (b.node, b.dir)
         | c -> c)

let max_link_use ?topo sched =
  match link_utilization ?topo sched with [] -> 0 | u :: _ -> u.rounds_used

type occupancy = {
  rounds : int;
  comms : int;
  mean_per_round : float;
  max_per_round : int;
  min_per_round : int;
}

let occupancy (sched : Padr.Schedule.t) =
  let per_round = Padr.Schedule.deliveries_per_round sched in
  let rounds = Array.length per_round in
  let comms = Array.fold_left ( + ) 0 per_round in
  if rounds = 0 then
    { rounds = 0; comms = 0; mean_per_round = 0.0; max_per_round = 0; min_per_round = 0 }
  else
    {
      rounds;
      comms;
      mean_per_round = float_of_int comms /. float_of_int rounds;
      max_per_round = Array.fold_left max 0 per_round;
      min_per_round = Array.fold_left min max_int per_round;
    }

let per_round_table (sched : Padr.Schedule.t) =
  let table =
    Table.create ~title:"per-round detail"
      ~columns:[ "round"; "comms"; "live connections" ]
  in
  let live = Hashtbl.create 16 in
  Padr.Schedule.fold_configs sched ~init:() ~f:(fun () index configs ->
      Hashtbl.replace live index
        (List.fold_left
           (fun acc (_, cfg) -> acc + Cst.Switch_config.connection_count cfg)
           0 configs));
  Array.iter
    (fun (r : Padr.Schedule.round) ->
      Table.add_int_row table
        [
          r.index;
          List.length r.deliveries;
          Option.value ~default:0 (Hashtbl.find_opt live r.index);
        ])
    sched.rounds;
  table
