type stats = Cap_engine.stats = {
  cycles : int;
  control_messages : int;
  max_message_words : int;
  state_words_per_switch : int;
}

(* A small growable int buffer: the per-round source/dest/dirty lists are
   appended to thousands of times per run, so they are reused across rounds
   and only ever grow. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create cap = { a = Array.make (max cap 1) 0; len = 0 }
  let clear b = b.len <- 0
  let get b i = b.a.(i)

  let push b x =
    if b.len = Array.length b.a then begin
      let a' = Array.make (2 * Array.length b.a) 0 in
      Array.blit b.a 0 a' 0 b.len;
      b.a <- a'
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let to_list b = List.init b.len (fun i -> b.a.(i))
end

(* Engine workspace.  The switch-indexed arrays have [leaves] slots,
   indexed by node id like [Phase1]'s registers (slot 0 unused), and the
   [wants] are cleared through a dirty list, never by whole-array fills.
   Each domain keeps the last one it used and reuses it while the leaf
   count matches: [Phase1.fill] overwrites every switch's registers,
   the [pending] counters are rebuilt from them, and each round starts
   by resetting the [wants] its predecessor dirtied — the first round
   those of the previous run, however it ended.  Only a run that
   returns puts its workspace back. *)
type workspace = {
  states : Csa_state.t array;  (* switch registers *)
  pending : int array;
      (* pending.(v) = unscheduled matches left in v's subtree; the
         frontier prunes any child subtree with no message and no pending
         match, which bounds a round at O(active paths * depth). *)
  wants : Cst.Switch_config.t array;
  dirty : Ibuf.t;  (* switches whose want was set this round *)
  stack_node : int array;  (* DFS frontier stack; length levels + 2 *)
  stack_msg : Downmsg.t array;
  srcs : Ibuf.t;
  dsts : Ibuf.t;
}

let make_workspace topo =
  let leaves = Cst.Topology.leaves topo in
  let cap = Cst.Topology.levels topo + 2 in
  {
    states = Array.init leaves (fun _ -> Csa_state.zero ());
    pending = Array.make leaves 0;
    wants = Array.make leaves Cst.Switch_config.empty;
    dirty = Ibuf.create 64;
    stack_node = Array.make cap 0;
    stack_msg = Array.make cap Downmsg.null;
    srcs = Ibuf.create 64;
    dsts = Ibuf.create 64;
  }

let last_workspace : workspace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* The domain's workspace for [topo], taken out of its slot for the
   duration of [f] (a nested run on the same domain builds its own) and
   put back when [f] returns: a run that raised drops it. *)
let with_workspace topo f =
  let ws =
    match Domain.DLS.get last_workspace with
    | Some ws when Array.length ws.pending = Cst.Topology.leaves topo ->
        Domain.DLS.set last_workspace None;
        ws
    | _ -> make_workspace topo
  in
  let r = f ws in
  Domain.DLS.set last_workspace (Some ws);
  r

(* A child is worth visiting when it receives a request or still owns
   an unscheduled match. *)
let[@inline] live ws ~leaves child (m : Downmsg.t) =
  m.sreq <> None || m.dreq <> None || (child < leaves && ws.pending.(child) > 0)

(* The engine executes the paper's message-passing algorithm but only
   ever visits nodes that can act: Phase 1 is [Phase1.fill] (every
   switch combines its children's words once), and each Phase-2 down
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
      with_workspace topo @@ fun ws ->
      let leaves = Cst.Topology.leaves topo in
      let levels = Cst.Topology.levels topo in
      let net = Cst.Net.create ?log topo in
      let log = Cst.Net.log net in
      let from = Cst.Exec_log.length log in
      (* Phase 1: one cycle for the leaves' reports, then one per level;
         every node but the root sends its parent one two-word message. *)
      Phase1.fill topo set ws.states;
      Cst.Exec_log.phase_done log ~levels;
      let cycles = ref (levels + 1) in
      let messages = ref (2 * (leaves - 1)) in
      let max_words = ref Phase1.up_words_per_message in

      (* Subtree pending-match counters drive the frontier pruning. *)
      for v = leaves - 1 downto 1 do
        let below =
          if 2 * v < leaves then ws.pending.(2 * v) + ws.pending.((2 * v) + 1)
          else 0
        in
        ws.pending.(v) <- ws.states.(v).m + below
      done;

      let remaining = ref ws.pending.(Cst.Topology.root) in
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
          for i = 0 to ws.dirty.len - 1 do
            ws.wants.(Ibuf.get ws.dirty i) <- Cst.Switch_config.empty
          done;
          Ibuf.clear ws.dirty;
          Ibuf.clear ws.srcs;
          Ibuf.clear ws.dsts;
          let matched = ref 0 in
          (* Down sweep over the active frontier only.  Pushing the right
             child first makes the explicit stack visit leaves in
             increasing PE order, like the spec's recursive sweep. *)
          let sp = ref 0 in
          let push node msg =
            ws.stack_node.(!sp) <- node;
            ws.stack_msg.(!sp) <- msg;
            incr sp
          in
          push Cst.Topology.root Downmsg.null;
          while !sp > 0 do
            decr sp;
            let node = ws.stack_node.(!sp) in
            let msg = ws.stack_msg.(!sp) in
            if node >= leaves then begin
              let pe = node - leaves in
              (match msg.Downmsg.sreq with
              | Some 0 -> Ibuf.push ws.srcs pe
              | None -> ()
              | Some _ -> assert false);
              match msg.Downmsg.dreq with
              | Some 0 -> Ibuf.push ws.dsts pe
              | None -> ()
              | Some _ -> assert false
            end
            else begin
              let d = Round.configure ws.states.(node) msg in
              if not (Cst.Switch_config.is_empty d.config) then begin
                ws.wants.(node) <- d.config;
                Ibuf.push ws.dirty node
              end;
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
          (* Only switches whose want changed are reconfigured; for every
             other switch [reconfigure_lazy] with an empty want is a
             provable no-op (lazy merge keeps the old configuration and
             charges nothing). *)
          for i = 0 to ws.dirty.len - 1 do
            let node = Ibuf.get ws.dirty i in
            Cst.Net.reconfigure_lazy net ~node ~want:ws.wants.(node)
          done;
          let sources = Ibuf.to_list ws.srcs in
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
