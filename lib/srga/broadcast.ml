type plan = Cst_comm.Comm_set.t list

let plan ~n ~origin =
  if n < 2 || not (Cst_util.Bits.is_power_of_two n) then
    invalid_arg "Broadcast.plan: n must be a power of two >= 2";
  if origin < 0 || origin >= n then invalid_arg "Broadcast.plan: origin";
  (* Recursive doubling on the PE line relative to the origin: holders
     after stage k are the PEs congruent to origin modulo n / 2^k... we
     instead build it top-down over halving intervals, which keeps each
     stage's communications in disjoint intervals (width 1). *)
  let stages = ref [] in
  let holders = ref [ origin ] in
  let step = ref n in
  while !step > 1 do
    let half = !step / 2 in
    let comms =
      List.map
        (fun h ->
          let block = h / !step * !step in
          let target =
            if h - block < half then block + half + (h - block)
            else block + (h - block - half)
          in
          Cst_comm.Comm.make ~src:h ~dst:target)
        !holders
    in
    stages := Cst_comm.Comm_set.create_exn ~n comms :: !stages;
    holders :=
      List.sort compare
        (!holders @ List.map (fun (c : Cst_comm.Comm.t) -> c.dst) comms);
    step := half
  done;
  List.rev !stages

type result = {
  stages : int;
  rounds : int;
  power_units : int;
  covered : int list;
}

let run ~n ~origin =
  let stages = plan ~n ~origin in
  let covered = ref [ origin ] in
  let rounds = ref 0 and power = ref 0 in
  List.iter
    (fun set ->
      match Padr.Waves.schedule set with
      | Error e ->
          invalid_arg (Format.asprintf "Broadcast.run: %a" Padr.pp_error e)
      | Ok w ->
          rounds := !rounds + w.rounds;
          power := !power + w.power.total_connects;
          List.iter
            (fun (src, dst) ->
              if not (List.mem src !covered) then
                invalid_arg "Broadcast.run: stage sends from a non-holder";
              covered := dst :: !covered)
            (Padr.Waves.deliveries w))
    stages;
  {
    stages = List.length stages;
    rounds = !rounds;
    power_units = !power;
    covered = List.sort compare !covered;
  }
