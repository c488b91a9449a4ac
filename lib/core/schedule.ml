type round = {
  index : int;
  sources : int list;
  dests : int list;
  deliveries : (int * int) list;
}

type power = {
  total_connects : int;
  total_disconnects : int;
  total_writes : int;
  max_connects_per_switch : int;
  max_writes_per_switch : int;
  max_events_per_switch : int;
  ledger : Cst.Power_meter.t;
}

type source = { log : Cst.Exec_log.t; from : int; upto : int }

type t = {
  leaves : int;
  set : Cst_comm.Comm_set.t;
  width : int;
  rounds : round array;
  power : power;
  cycles : int;
  source : source option;
}

let num_rounds t = Array.length t.rounds

let all_deliveries t =
  Array.to_list t.rounds
  |> List.concat_map (fun r -> r.deliveries)
  |> List.sort compare

let deliveries_per_round t =
  Array.map (fun r -> List.length r.deliveries) t.rounds

let power_of_meter meter =
  {
    total_connects = Cst.Power_meter.total_connects meter;
    total_disconnects = Cst.Power_meter.total_disconnects meter;
    total_writes = Cst.Power_meter.total_writes meter;
    max_connects_per_switch = Cst.Power_meter.max_connects_per_switch meter;
    max_writes_per_switch = Cst.Power_meter.max_writes_per_switch meter;
    max_events_per_switch = Cst.Power_meter.max_events_per_switch meter;
    ledger = meter;
  }

let per_switch_connects p = Cst.Power_meter.per_switch_connects p.ledger
let per_switch_writes p = Cst.Power_meter.per_switch_writes p.ledger
let per_switch_disconnects p = Cst.Power_meter.per_switch_disconnects p.ledger
let zero_power ~num_nodes = power_of_meter (Cst.Power_meter.zero ~num_nodes)

let combine_power a b =
  power_of_meter (Cst.Power_meter.add a.ledger b.ledger)

let mirror_power topo p =
  let num_nodes = Cst.Topology.num_nodes topo in
  {
    p with
    ledger =
      Cst.Power_meter.remap
        (fun v ->
          if v >= 1 && v <= num_nodes then Cst.Topology.mirror_node topo v
          else v)
        p.ledger;
  }

(* The schedule as a pure derivation of the execution log.  Sources are
   the delivery sources in emission order (every producer sweeps PEs in
   ascending order, so this matches the legacy eager fields); dests are
   sorted.  Config snapshots are not copied: the schedule keeps its log
   range and [fold_configs] replays it on demand. *)
let of_log ?(from = 0) ?upto ?(keep_configs = true) ~set ~topo ~cycles log =
  let leaves = Cst.Topology.leaves topo in
  let num_nodes = Cst.Topology.num_nodes topo in
  let upto =
    let len = Cst.Exec_log.length log in
    match upto with Some u -> min u len | None -> len
  in
  let rounds =
    Cst.Exec_log.fold_rounds ~from ~upto ~snapshots:false log ~init:[]
      ~f:(fun acc (rv : Cst.Exec_log.round_view) ->
        {
          index = rv.index;
          sources = List.map fst rv.deliveries;
          dests = List.sort compare (List.map snd rv.deliveries);
          deliveries = rv.deliveries;
        }
        :: acc)
    |> List.rev |> Array.of_list
  in
  {
    leaves;
    set;
    width = Cst.Compat.width topo set;
    rounds;
    power = power_of_meter (Cst.Power_meter.of_log ~from ~upto ~num_nodes log);
    cycles;
    source = (if keep_configs then Some { log; from; upto } else None);
  }

let fold_configs t ~init ~f =
  match t.source with
  | None -> init
  | Some { log; from; upto } ->
      Cst.Exec_log.fold_rounds ~from ~upto log ~init
        ~f:(fun acc (rv : Cst.Exec_log.round_view) -> f acc rv.index rv.live)

let pp_round fmt r =
  Format.fprintf fmt "round %d:" r.index;
  List.iter (fun (s, d) -> Format.fprintf fmt " %d->%d" s d) r.deliveries

let pp fmt t =
  Format.fprintf fmt
    "@[<v>schedule over %d PEs: %d communications, width %d, %d rounds, %d \
     cycles@,power: %d units (%d disconnects), max %d connects/switch@,"
    t.leaves
    (Cst_comm.Comm_set.size t.set)
    t.width (num_rounds t) t.cycles t.power.total_connects
    t.power.total_disconnects t.power.max_connects_per_switch;
  Array.iter (fun r -> Format.fprintf fmt "%a@," pp_round r) t.rounds;
  Format.pp_close_box fmt ()
