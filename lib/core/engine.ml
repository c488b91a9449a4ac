type stats = Cap_engine.stats = {
  cycles : int;
  control_messages : int;
  max_message_words : int;
  state_words_per_switch : int;
}

(* [Round]'s pruning rule, written out here rather than called: the
   development profile, which the benchmark builds, compiles with
   [-opaque], so a call into another module is never inlined, and the
   loop below makes this test twice per visited switch. *)
let[@inline] live (ws : Round.workspace) ~leaves child (m : Downmsg.t) =
  m.sreq <> None || m.dreq <> None || (child < leaves && ws.pending.(child) > 0)

(* The engine executes the paper's message-passing algorithm but only
   ever visits nodes that can act: Phase 1 and the pending counters are
   [Round.prepare] on the domain's workspace, and each Phase-2 down
   sweep follows an explicit frontier of nodes that hold a message or
   still contain unscheduled matches.  Quiescent switches neither
   execute [Round.configure] (their decision is provably the null
   decision) nor get reconfigured.  Cycles and control messages are
   charged in closed form — the simulated hardware still clocks every
   level and still exchanges the null messages; the simulator just does
   not spend wall-clock on them. *)
let simulate ?log topo set =
  assert (Cst.Topology.is_binary topo);
  match Sched_error.check topo set with
  | Error e -> Error e
  | Ok () ->
      Round.with_workspace topo @@ fun ws ->
      let leaves = Cst.Topology.leaves topo in
      let levels = Cst.Topology.levels topo in
      let net = Cst.Net.create ?log topo in
      let log = Cst.Net.log net in
      let from = Cst.Exec_log.length log in
      (* Phase 1: one cycle for the leaves' reports, then one per level;
         every node but the root sends its parent one two-word message. *)
      let remaining = ref (Round.prepare ws topo set) in
      Cst.Exec_log.phase_done log ~levels;
      let cycles = ref (levels + 1) in
      let messages = ref (2 * (leaves - 1)) in
      let max_words = ref Phase1.up_words_per_message in
      (* The DFS frontier never holds more than one pending sibling per
         level plus the node being expanded. *)
      let stack_node = Array.make (levels + 2) 0 in
      let stack_msg = Array.make (levels + 2) Downmsg.null in
      let index = ref 0 in
      (* Per round, the modeled hardware exchanges one down message per
         tree link (2*(leaves-1) messages of [Downmsg.words] words) and
         clocks levels+1 sweep cycles plus one data cycle, whether or not
         a switch has anything to do; charged in closed form. *)
      let round_messages = 2 * (leaves - 1) in
      let round_message_words = Downmsg.words Downmsg.null in
      try
        while !remaining > 0 do
          incr index;
          Cst.Exec_log.round_begin log ~index:!index;
          let sources = ref [] in
          let matched = ref 0 in
          (* Down sweep over the active frontier only.  Pushing the right
             child first makes the explicit stack visit leaves in
             increasing PE order, like the spec's recursive sweep.  A
             switch is reconfigured as it decides, in this visit order;
             for every switch left alone [reconfigure_lazy] with an empty
             want would be a provable no-op (lazy merge keeps the old
             configuration and charges nothing). *)
          let sp = ref 0 in
          let push node msg =
            stack_node.(!sp) <- node;
            stack_msg.(!sp) <- msg;
            incr sp
          in
          push Cst.Topology.root Downmsg.null;
          while !sp > 0 do
            decr sp;
            let node = stack_node.(!sp) in
            let msg = stack_msg.(!sp) in
            if node >= leaves then begin
              (match msg.Downmsg.sreq with
              | Some 0 -> sources := (node - leaves) :: !sources
              | None -> ()
              | Some _ -> assert false);
              match msg.Downmsg.dreq with
              | Some 0 | None -> ()
              | Some _ -> assert false
            end
            else begin
              let d = Round.configure ws.states.(node) msg in
              if not (Cst.Switch_config.is_empty d.config) then
                Cst.Net.reconfigure_lazy net ~node ~want:d.config;
              if d.scheduled_matched then begin
                incr matched;
                let v = ref node in
                while !v >= 1 do
                  ws.pending.(!v) <- ws.pending.(!v) - 1;
                  v := !v lsr 1
                done
              end;
              let l = Cst.Topology.left_u node
              and r = Cst.Topology.right_u node in
              if live ws ~leaves r d.to_right then push r d.to_right;
              if live ws ~leaves l d.to_left then push l d.to_left
            end
          done;
          if !matched = 0 then
            raise (Csa.Stall { round = !index; remaining = !remaining });
          messages := !messages + round_messages;
          max_words := max !max_words round_message_words;
          cycles := !cycles + levels + 1;
          let sources = List.rev !sources in
          List.iter (fun pe -> Cst.Net.pe_write net ~pe pe) sources;
          let deliveries = Cst.Data_plane.transfer net ~sources in
          List.iter
            (fun (src, dst) -> Cst.Exec_log.deliver log ~src ~dst)
            deliveries;
          incr cycles;
          (* the data transfer cycle *)
          remaining := !remaining - !matched
        done;
        Cst.Exec_log.run_end log ~rounds:!index;
        Ok
          ( log,
            from,
            {
              cycles = !cycles;
              control_messages = !messages;
              max_message_words = !max_words;
              state_words_per_switch =
                Csa_state.words ws.states.(Cst.Topology.root);
            } )
      with Csa.Stall { round; remaining } ->
        Error (Csa.Stalled { round; remaining })

let run ?log topo set =
  if not (Cst.Topology.is_binary topo) then Cap_engine.run ?log topo set
  else
    match simulate ?log topo set with
    | Error e -> Error e
    | Ok (log, from, stats) ->
        let sched =
          Schedule.of_log ~from ~set ~topo ~cycles:stats.cycles log
        in
        Ok (sched, stats)

let run_log ~log topo set =
  if not (Cst.Topology.is_binary topo) then Cap_engine.run_log ~log topo set
  else
    match simulate ~log topo set with
    | Error e -> Error e
    | Ok (_, _, stats) -> Ok stats

let run_exn ?log topo set =
  match run ?log topo set with
  | Ok r -> r
  | Error e -> invalid_arg (Format.asprintf "%a" Csa.pp_error e)
