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
  let net_right = Cst.Net.create topo in
  let net_left = Cst.Net.create topo in
  let phases =
    List.map
      (fun (p : Traffic.phase) ->
        let right, left = Cst_comm.Decompose.split p.set in
        (* Log cursors delimit this phase's share of the shared nets'
           histories. *)
        let from_r = Cst.Exec_log.length (Cst.Net.log net_right) in
        let from_l = Cst.Exec_log.length (Cst.Net.log net_left) in
        let run net layers =
          List.fold_left
            (fun (w, r, c) layer ->
              let s = Padr.Csa.run_exn ~net topo layer in
              (w + 1, r + Padr.Schedule.num_rounds s, c + s.cycles))
            (0, 0, 0) layers
        in
        let w1, r1, c1 = run net_right (Cst_comm.Wn_cover.layers right) in
        let w2, r2, c2 =
          run net_left (Cst_comm.Wn_cover.layers (Cst_comm.Mirror.set left))
        in
        let delta net from =
          Cst.Power_meter.of_log ~from
            ~num_nodes:(Cst.Topology.num_nodes topo)
            (Cst.Net.log net)
        in
        let dr = delta net_right from_r
        and dl = delta net_left from_l in
        {
          label = p.label;
          comms = Cst_comm.Comm_set.size p.set;
          width = Cst_comm.Width.width ~leaves:trace.leaves p.set;
          waves = w1 + w2;
          rounds = r1 + r2;
          cycles = c1 + c2;
          connects =
            Cst.Power_meter.total_connects dr
            + Cst.Power_meter.total_connects dl;
          writes =
            Cst.Power_meter.total_writes dr + Cst.Power_meter.total_writes dl;
        })
      trace.phases
  in
  let whole net =
    Padr.Schedule.power_of_meter
      (Cst.Power_meter.of_log
         ~num_nodes:(Cst.Topology.num_nodes topo)
         (Cst.Net.log net))
  in
  let power =
    Padr.Schedule.combine_power (whole net_right)
      (Padr.Schedule.mirror_power topo (whole net_left))
  in
  finish ~scheduler:"padr" ~power phases

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
