type report = {
  ok : bool;
  rounds_checked : int;
  first_divergence : (int * int) option;
}

let audit topo set =
  let leaves = Cst.Topology.leaves topo in
  Round.with_workspace topo @@ fun ws ->
  let pending =
    ref
      (List.sort_uniq compare
         (Array.to_list (Cst_comm.Comm_set.comms set)
         |> List.map (fun (c : Cst_comm.Comm.t) -> (c.src, c.dst))))
  in
  let divergence = ref None in
  let rounds = ref 0 in
  let remaining = ref (Round.prepare ws topo set) in
  while !remaining > 0 && !divergence = None do
    incr rounds;
    let out = Round.sweep topo ws in
    if out.matched_count = 0 then
      failwith "Invariants.audit: no progress";
    remaining := !remaining - out.matched_count;
    (* The round's scheduled communications are source-dest pairs read
       off the marked leaves; remove them from the pending set.  Sources
       and destinations pair up in order because each round is itself a
       well-nested compatible batch. *)
    let scheduled =
      List.filter (fun (s, _) -> List.mem s out.sources) !pending
    in
    pending := List.filter (fun p -> not (List.mem p scheduled)) !pending;
    (* Oracle: recompute Phase 1 on what is left. *)
    let rest =
      Cst_comm.Comm_set.create_exn ~n:(Cst_comm.Comm_set.n set)
        (List.map (fun (s, d) -> Cst_comm.Comm.make ~src:s ~dst:d) !pending)
    in
    let oracle = Phase1.run topo rest in
    for node = 1 to leaves - 1 do
      if
        !divergence = None
        && not (Csa_state.equal ws.states.(node) (Phase1.state oracle node))
      then divergence := Some (!rounds, node)
    done
  done;
  {
    ok = !divergence = None;
    rounds_checked = !rounds;
    first_divergence = !divergence;
  }

let pp_report fmt r =
  match r.first_divergence with
  | None ->
      Format.fprintf fmt
        "registers match the from-scratch oracle after each of %d rounds"
        r.rounds_checked
  | Some (round, node) ->
      Format.fprintf fmt "register divergence at round %d, switch %d" round
        node
