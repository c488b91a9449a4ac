(* Quickstart: build a communication set, schedule it with the power-aware
   CSA, inspect the rounds, the established paths and the power ledger.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A right-oriented well-nested set over 16 PEs, in two equivalent
     notations: explicit pairs or a parenthesis string (paper Figure 2). *)
  let set =
    match Cst_comm.Paren.of_string "((.)(.))(()).(.)" with
    | Ok s -> s
    | Error e -> failwith e
  in
  Format.printf "communication set: %a@." Cst_comm.Comm_set.pp set;
  Format.printf "as parentheses:    %s@." (Cst_comm.Paren.to_string set);
  Format.printf "width:             %d@.@." (Cst_comm.Width.width_auto set);
  Format.printf "%s@." (Cst_report.Arc_diagram.render_set set);

  (* Schedule it.  [Padr.schedule] picks the smallest adequate CST.
     Passing a log captures the canonical execution record — every
     derived view (trace, power, digest) reads from it. *)
  let log = Cst.Exec_log.create () in
  let sched =
    match Padr.schedule ~log set with
    | Ok s -> s
    | Error e -> failwith (Format.asprintf "%a" Padr.pp_error e)
  in
  Format.printf "%a@." Padr.Schedule.pp sched;

  (* Every claim of the paper is checkable on the result. *)
  let report = Padr.verify sched in
  Format.printf "verification: %a@.@." Padr.Verify.pp_report report;

  (* Who goes when, as arc diagrams. *)
  Format.printf "--- rounds ---@.%s@."
    (Cst_report.Arc_diagram.render_rounds
       ~n:(Cst_comm.Comm_set.n set)
       (Array.to_list sched.rounds
       |> List.map (fun (r : Padr.Schedule.round) -> (r.index, r.deliveries))));

  (* The trace narrates the execution log, round by round. *)
  Format.printf "--- event trace ---@.%a@." Cst.Trace.pp (Cst.Trace.of_log log);
  Format.printf "log: %d events, digest %s@.@." (Cst.Exec_log.length log)
    (Cst.Exec_log.digest log);

  (* Physical paths of round 1, straight from the data plane. *)
  let topo = Cst.Topology.create ~leaves:sched.leaves in
  let net = Cst.Net.create topo in
  Padr.Schedule.fold_configs sched ~init:() ~f:(fun () index live ->
      if index = 1 then
        List.iter (fun (node, cfg) -> Cst.Net.reconfigure net ~node cfg) live);
  Format.printf "--- round 1 paths ---@.";
  List.iter
    (fun src ->
      let hops, dst = Cst.Data_plane.trace_from net ~src in
      Format.printf "PE %d" src;
      List.iter
        (fun (h : Cst.Data_plane.hop) ->
          Format.printf " -> sw%d(%a>%a)" h.node Cst.Side.pp h.input
            Cst.Side.pp h.output)
        hops;
      match dst with
      | Some d -> Format.printf " -> PE %d@." d
      | None -> Format.printf " -> (dead end)@.")
    sched.rounds.(0).sources
