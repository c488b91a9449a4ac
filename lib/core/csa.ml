type error = Sched_error.t =
  | Too_large of { n : int; leaves : int }
  | Not_well_nested of Cst_comm.Well_nested.violation
  | Stalled of { round : int; remaining : int }

let pp_error = Sched_error.pp

exception Stall of { round : int; remaining : int }
(* Internal signal raised from inside a scheduling loop and converted to
   [Error (Stalled _)] at the run boundary. *)

let run ?(eager_clear = false) ?net ?log topo set =
  if not (Cst.Topology.is_binary topo) then begin
    (* The 3-sided switch protocol below is meaningless off the binary
       shape; the capacity engine is the spec there. *)
    if net <> None then invalid_arg "Csa.run: ?net requires a binary topology";
    match Cap_engine.run ?log topo set with
    | Ok (sched, _stats) -> Ok sched
    | Error e -> Error e
  end
  else
    let leaves = Cst.Topology.leaves topo in
    match Sched_error.check topo set with
    | Error e -> Error e
    | Ok () ->
        let net =
          match net with
          | Some net ->
              if log <> None then
                invalid_arg "Csa.run: ?log and ?net are exclusive";
              if Cst.Topology.leaves (Cst.Net.topology net) <> leaves then
                invalid_arg "Csa.run: net topology mismatch";
              net
          | None -> Cst.Net.create ?log topo
        in
        Round.with_workspace topo @@ fun ws ->
        let log = Cst.Net.log net in
        (* The cursor makes the derived views cover this run only, even
           on a shared long-lived net. *)
        let from = Cst.Exec_log.length log in
        let remaining = ref (Round.prepare ws topo set) in
        Cst.Exec_log.phase_done log ~levels:(Cst.Topology.levels topo);
        let index = ref 0 in
        try
        while !remaining > 0 do
          incr index;
          Cst.Exec_log.round_begin log ~index:!index;
          let out = Round.sweep topo ws in
          if out.matched_count = 0 then
            raise (Stall { round = !index; remaining = !remaining });
          (* A switch the sweep did not configure wants nothing, and a
             lazy reconfiguration to nothing changes nothing and logs
             nothing: only the configured switches are touched. *)
          if eager_clear then
            for node = 1 to leaves - 1 do
              Cst.Net.reconfigure net ~node ws.wants.(node)
            done
          else
            Round.iter_configured ws (fun node want ->
                Cst.Net.reconfigure_lazy net ~node ~want);
          List.iter (fun pe -> Cst.Net.pe_write net ~pe pe) out.sources;
          let deliveries = Cst.Data_plane.transfer net ~sources:out.sources in
          List.iter
            (fun (src, dst) -> Cst.Exec_log.deliver log ~src ~dst)
            deliveries;
          (* Every scheduled communication produces exactly one active
             source and one delivery. *)
          assert (List.length out.sources = out.matched_count);
          assert (List.length deliveries = out.matched_count);
          remaining := !remaining - out.matched_count
        done;
        Cst.Exec_log.run_end log ~rounds:!index;
        Ok
          (Schedule.of_log ~from ~set ~topo
             ~cycles:(Cst.Topology.spec_cycles topo ~rounds:!index)
             log)
        with Stall { round; remaining } -> Error (Stalled { round; remaining })

let run_exn ?eager_clear ?net ?log topo set =
  match run ?eager_clear ?net ?log topo set with
  | Ok s -> s
  | Error e -> invalid_arg (Format.asprintf "%a" pp_error e)
