type report = {
  ok : bool;
  issues : string list;
  rounds : int;
  width : int;
  deliveries : int;
  max_connects_per_switch : int;
}

let default_power_bound = 9

let replay_round topo (round : Schedule.round) live =
  let net = Cst.Net.create topo in
  List.iter (fun (node, cfg) -> Cst.Net.reconfigure net ~node cfg) live;
  List.iter (fun pe -> Cst.Net.pe_write net ~pe pe) round.sources;
  Cst.Data_plane.transfer net ~sources:round.sources

let schedule ?(power_bound = default_power_bound)
    ?(check_rounds_optimal = true) topo set (sched : Schedule.t) =
  let issues = ref [] in
  let problem fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  let expected = Cst_comm.Comm_set.matching set in
  let got = Schedule.all_deliveries sched in
  if got <> expected then
    problem "deliveries differ from the set's matching (%d vs %d pairs)"
      (List.length got) (List.length expected);
  Array.iter
    (fun (r : Schedule.round) ->
      let comms =
        List.map
          (fun (s, d) -> Cst_comm.Comm.make ~src:s ~dst:d)
          r.deliveries
      in
      if not (Cst.Compat.is_compatible topo comms) then
        problem "round %d is not a compatible set" r.index;
      if List.length r.sources <> List.length r.deliveries then
        problem "round %d: %d sources but %d deliveries" r.index
          (List.length r.sources)
          (List.length r.deliveries);
      if List.length r.dests <> List.length r.deliveries then
        problem "round %d: %d dests but %d deliveries" r.index
          (List.length r.dests)
          (List.length r.deliveries))
    sched.rounds;
  (* The physical replay pairs the k-th logged round with the k-th
     schedule round.  Only binary switches have a [Switch_config.t]
     data plane: capacity-engine logs carry no [Connect] events. *)
  if Cst.Topology.is_binary topo && Option.is_some sched.source then begin
    let logged =
      Schedule.fold_configs sched ~init:0 ~f:(fun k index live ->
          (if k < Array.length sched.rounds then
             let r = sched.rounds.(k) in
             if
               r.index <> index
               || List.sort compare (replay_round topo r live)
                  <> List.sort compare r.deliveries
             then
               problem "round %d: replaying the logged configurations diverges"
                 r.index);
          k + 1)
    in
    if logged <> Array.length sched.rounds then
      problem "the log holds %d rounds but the schedule %d" logged
        (Array.length sched.rounds)
  end;
  let width = Cst.Compat.width topo set in
  if check_rounds_optimal && Schedule.num_rounds sched <> width then
    problem "rounds (%d) differ from width (%d)"
      (Schedule.num_rounds sched)
      width;
  if Schedule.num_rounds sched < width then
    problem "schedule beats the width lower bound — verifier or width bug";
  if sched.power.max_connects_per_switch > power_bound then
    problem "switch exceeded the constant power bound: %d > %d"
      sched.power.max_connects_per_switch power_bound;
  {
    ok = !issues = [];
    issues = List.rev !issues;
    rounds = Schedule.num_rounds sched;
    width;
    deliveries = List.length got;
    max_connects_per_switch = sched.power.max_connects_per_switch;
  }

let pp_report fmt r =
  if r.ok then
    Format.fprintf fmt
      "OK: %d deliveries in %d rounds (width %d), max %d connects/switch"
      r.deliveries r.rounds r.width r.max_connects_per_switch
  else begin
    Format.fprintf fmt "@[<v>FAILED:%d issue(s)@," (List.length r.issues);
    List.iter (fun i -> Format.fprintf fmt "  - %s@," i) r.issues;
    Format.pp_close_box fmt ()
  end
