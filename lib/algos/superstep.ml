type 'a step = {
  label : string;
  pattern : 'a array -> Cst_comm.Comm_set.t;
  absorb : 'a array -> (int * int) list -> 'a array;
}

type 'a program = { name : string; steps : 'a step list }

type stats = {
  supersteps : int;
  waves : int;
  rounds : int;
  cycles : int;
  power : Padr.Schedule.power;
}

let run ?leaves program ~init =
  let n = Array.length init in
  if n < 1 then invalid_arg "Superstep.run: no PEs";
  let leaves =
    match leaves with
    | Some l -> l
    | None -> Cst_util.Bits.ceil_pow2 (max 2 n)
  in
  let topo = Cst.Topology.create ~leaves in
  (* One persistent network per orientation: configurations carry over
     between supersteps exactly as between rounds. *)
  let right = Cst.Net.create topo and left = Cst.Net.create topo in
  let superstep (states, stats) step =
    let set = step.pattern states in
    if Cst_comm.Comm_set.n set <> n then
      invalid_arg
        (Printf.sprintf "Superstep.run: step %S uses %d PEs, program has %d"
           step.label (Cst_comm.Comm_set.n set) n);
    match Padr.Waves.run ~right ~left set with
    | Error e ->
        invalid_arg
          (Format.asprintf "Superstep.run: step %S: %a" step.label
             Padr.pp_error e)
    | Ok w ->
        let deliveries = Padr.Waves.deliveries w in
        if deliveries <> Cst_comm.Comm_set.matching set then
          invalid_arg
            (Printf.sprintf "Superstep.run: step %S deliveries diverge"
               step.label);
        ( step.absorb states deliveries,
          {
            stats with
            waves = stats.waves + Padr.Waves.num_waves w;
            rounds = stats.rounds + w.rounds;
            cycles = stats.cycles + w.cycles;
            power = Padr.Schedule.combine_power stats.power w.power;
          } )
  in
  List.fold_left superstep
    ( init,
      {
        supersteps = List.length program.steps;
        waves = 0;
        rounds = 0;
        cycles = 0;
        power =
          Padr.Schedule.zero_power ~num_nodes:(Cst.Topology.num_nodes topo);
      } )
    program.steps
