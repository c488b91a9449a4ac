let forest set =
  match Cst_comm.Well_nested.check set with
  | Ok () -> Cst_comm.Nest_forest.build set
  | Error v ->
      invalid_arg
        (Format.asprintf "Depth_sched: %a" Cst_comm.Well_nested.pp_violation v)

let rounds_needed set = Cst_comm.Nest_forest.max_depth (forest set)

let run ?log topo set =
  let f = forest set in
  let comms = Cst_comm.Comm_set.comms set in
  let depth_count = Cst_comm.Nest_forest.max_depth f in
  let batches = Array.make (max 1 depth_count) [] in
  Array.iteri
    (fun i c ->
      let d = Cst_comm.Nest_forest.depth f i - 1 in
      batches.(d) <- c :: batches.(d))
    comms;
  let batches =
    Array.to_list batches |> List.map List.rev
    |> List.filter (fun b -> b <> [])
  in
  Round_runner.run ~name:"depth" ?log topo set batches
