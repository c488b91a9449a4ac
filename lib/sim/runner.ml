type phase_result = {
  label : string;
  comms : int;
  width : int;
  waves : int;
  rounds : int;
  cycles : int;
  connects : int;
  writes : int;
}

type result = {
  scheduler : string;
  phases : phase_result list;
  rounds : int;
  cycles : int;
  power : Padr.Schedule.power;
}

let finish ~scheduler ~power phases =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 phases in
  {
    scheduler;
    phases;
    rounds = sum (fun p -> p.rounds);
    cycles = sum (fun p -> p.cycles);
    power;
  }

let run_padr (trace : Traffic.t) =
  let topo = Cst.Topology.create ~leaves:trace.leaves in
  let right = Cst.Net.create topo and left = Cst.Net.create topo in
  let power =
    ref (Padr.Schedule.zero_power ~num_nodes:(Cst.Topology.num_nodes topo))
  in
  let phases =
    List.map
      (fun (p : Traffic.phase) ->
        match Padr.Waves.run ~right ~left p.set with
        | Error e ->
            invalid_arg
              (Format.asprintf "Runner.run_padr: phase %s: %a" p.label
                 Padr.pp_error e)
        | Ok w ->
            power := Padr.Schedule.combine_power !power w.power;
            {
              label = p.label;
              comms = Cst_comm.Comm_set.size p.set;
              width = Cst_comm.Width.width ~leaves:trace.leaves p.set;
              waves = Padr.Waves.num_waves w;
              rounds = w.rounds;
              cycles = w.cycles;
              connects = w.power.total_connects;
              writes = w.power.total_writes;
            })
      trace.phases
  in
  finish ~scheduler:"padr" ~power:!power phases

let run_baseline ?domains (algo : Cst_baselines.Registry.algo)
    (trace : Traffic.t) =
  (* Thin client of the batch service: one job per phase, sharded across
     the domain pool; outcomes come back ordered by phase index. *)
  let jobs =
    List.mapi
      (fun i (p : Traffic.phase) ->
        Cst_service.Service.job ~leaves:trace.leaves ~id:i ~algo:algo.name
          p.set)
      trace.phases
  in
  let outcomes = Cst_service.Service.run ?domains jobs in
  let topo = Cst.Topology.create ~leaves:trace.leaves in
  let power =
    ref (Padr.Schedule.zero_power ~num_nodes:(Cst.Topology.num_nodes topo))
  in
  let phases =
    List.map2
      (fun (p : Traffic.phase) (o : Cst_service.Service.outcome) ->
        match o.result with
        | Error e ->
            invalid_arg
              (Format.asprintf "Runner.run_baseline: phase %s: %a" p.label
                 Cst_service.Service.pp_error e)
        | Ok r ->
            power := Padr.Schedule.combine_power !power r.power;
            {
              label = p.label;
              comms = Cst_comm.Comm_set.size p.set;
              width = r.width;
              waves = r.waves;
              rounds = r.rounds;
              cycles = r.cycles;
              connects = r.power.total_connects;
              writes = r.power.total_writes;
            })
      trace.phases outcomes
  in
  finish ~scheduler:algo.name ~power:!power phases

let compare_all ?domains ?algos trace =
  let algos =
    match algos with
    | Some l -> l
    | None ->
        List.filter
          (fun (a : Cst_baselines.Registry.algo) -> a.name <> "csa")
          Cst_baselines.Registry.all
  in
  ("padr", run_padr trace)
  :: List.map
       (fun (a : Cst_baselines.Registry.algo) ->
         (a.name, run_baseline ?domains a trace))
       algos

let energy_ratio a b =
  float_of_int a.power.total_writes /. float_of_int (max 1 b.power.total_writes)
