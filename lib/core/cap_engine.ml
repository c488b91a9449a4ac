(* Capacity-aware scheduler for generalized (k-ary / fat-tree)
   topologies.

   The binary CSA machinery (Phase1 / Round / Net) is hard-wired to
   3-sided switches and heap arithmetic; rather than generalize its
   message protocol, non-binary topologies are scheduled by an explicit
   greedy circuit allocator: every round, scan the undelivered
   communications in source order and admit each one whose whole
   leaf-to-leaf path still has a free lane on every directed link.  A
   link of capacity [c] carries [c] simultaneous circuits, so a
   well-nested set of capacity-weighted width [w] (see
   [Cst.Compat.width]) completes in [w] rounds on the traces the
   bench gates: the bottleneck link admits exactly [c] of its [d]
   crossing circuits per round.

   The log it emits follows the standard single-run grammar
   [Phase_done (Round_begin Config* Deliver* )* Run_end], with switch
   reconfiguration expressed purely as [Write_config {node; count}]
   events ([count] = circuit segments newly installed at that switch
   this round, under lazy carry-over): the packed [Connect]/[Disconnect]
   events encode 3-sided ports and cannot describe a fanout-k crossbar.
   Digests, power meters, schedules and the segment merge all treat
   [Write_config] as a first-class config event, so every derived view
   works unchanged. *)

type stats = {
  cycles : int;
  control_messages : int;
  max_message_words : int;
  state_words_per_switch : int;
}

(* Phase 1's upward words and this engine's demand and grant words are
   two words long; the binary engine's down messages, sent once a round
   runs, are four.  Every switch keeps five words of state. *)
let stats_for topo ~rounds =
  let cycles, control_messages = Cst.Topology.engine_cost topo ~rounds in
  let max_message_words =
    if Cst.Topology.is_binary topo && rounds > 0 then
      max Phase1.up_words_per_message (Downmsg.words Downmsg.null)
    else Phase1.up_words_per_message
  in
  {
    cycles;
    control_messages;
    max_message_words;
    state_words_per_switch = Csa_state.words (Csa_state.zero ());
  }

(* A circuit segment at a switch: (in port, out port), ports numbered
   children first (0 .. fanout-1) then the parent port.  Packed for the
   per-node multiset lists. *)
let seg ~in_port ~out_port = (in_port lsl 16) lor out_port

(* Multiset difference size: |cur \ prev| over two sorted int lists. *)
let rec new_segments cur prev =
  match (cur, prev) with
  | [], _ -> 0
  | c, [] -> List.length c
  | c :: cs, p :: ps ->
      if c = p then new_segments cs ps
      else if c < p then 1 + new_segments cs (p :: ps)
      else new_segments (c :: cs) ps

let simulate ~log topo set =
  match Sched_error.check topo set with
  | Error e -> Error e
  | Ok () ->
      let levels = Cst.Topology.levels topo in
      let num_nodes = Cst.Topology.num_nodes topo in
      let first_leaf = Cst.Topology.first_leaf topo in
      let parent = Cst.Topology.parent_table topo in
      let cap = Cst.Topology.cap_table topo in
      let from = Cst.Exec_log.length log in
      Cst.Exec_log.phase_done log ~levels;
      let comms = Cst_comm.Comm_set.comms set in
      let m = Array.length comms in
      let delivered = Array.make m false in
      let remaining = ref m in
      let up_res = Array.make (num_nodes + 1) 0 in
      let down_res = Array.make (num_nodes + 1) 0 in
      (* Sorted per-switch segment multisets; [prev] persists across
         rounds (lazy carry-over: an identical segment re-routed next
         round costs no write). *)
      let prev = Array.make (num_nodes + 1) [] in
      let cur = Array.make (num_nodes + 1) [] in
      let touched = ref [] in
      let add_seg v s =
        if cur.(v) = [] then touched := v :: !touched;
        cur.(v) <- s :: cur.(v)
      in
      (* Walk the path of comm [c], charging residuals and recording
         segments.  Returns false (and commits nothing) if any link on
         the path has no free lane this round. *)
      let try_admit (c : Cst_comm.Comm.t) =
        let a = ref (first_leaf + c.src) and b = ref (first_leaf + c.dst) in
        let ok = ref true in
        while !a <> !b do
          if !a > !b then begin
            if up_res.(!a) < 1 then ok := false;
            a := parent.(!a)
          end
          else begin
            if down_res.(!b) < 1 then ok := false;
            b := parent.(!b)
          end
        done;
        if !ok then begin
          let lca = !a in
          (* Second pass commits: residuals and switch segments. *)
          let x = ref (first_leaf + c.src) in
          let src_in = ref (-1) in
          while !x <> lca do
            up_res.(!x) <- up_res.(!x) - 1;
            let p = parent.(!x) in
            let idx = Cst.Topology.child_index topo !x in
            if p = lca then src_in := idx
            else add_seg p (seg ~in_port:idx ~out_port:(Cst.Topology.fanout_of topo p));
            x := p
          done;
          let y = ref (first_leaf + c.dst) in
          let dst_out = ref (-1) in
          while !y <> lca do
            down_res.(!y) <- down_res.(!y) - 1;
            let p = parent.(!y) in
            let idx = Cst.Topology.child_index topo !y in
            if p = lca then dst_out := idx
            else add_seg p (seg ~in_port:(Cst.Topology.fanout_of topo p) ~out_port:idx);
            y := p
          done;
          add_seg lca (seg ~in_port:!src_in ~out_port:!dst_out)
        end;
        !ok
      in
      let index = ref 0 in
      while !remaining > 0 do
        incr index;
        Cst.Exec_log.round_begin log ~index:!index;
        Array.blit cap 0 up_res 0 (num_nodes + 1);
        Array.blit cap 0 down_res 0 (num_nodes + 1);
        let admitted = ref [] in
        for j = 0 to m - 1 do
          if not delivered.(j) && try_admit comms.(j) then begin
            delivered.(j) <- true;
            decr remaining;
            admitted := j :: !admitted
          end
        done;
        (* The scan always admits at least the first undelivered
           communication (all residuals are full), so the loop makes
           progress every round. *)
        assert (!admitted <> []);
        let nodes = List.sort_uniq compare !touched in
        List.iter
          (fun v ->
            let segs = List.sort compare cur.(v) in
            let count = new_segments segs prev.(v) in
            if count > 0 then Cst.Exec_log.write_config log ~node:v ~count;
            prev.(v) <- segs;
            cur.(v) <- [])
          nodes;
        touched := [];
        List.iter
          (fun j ->
            let c = comms.(j) in
            Cst.Exec_log.deliver log ~src:c.Cst_comm.Comm.src ~dst:c.dst)
          (List.rev !admitted)
      done;
      Cst.Exec_log.run_end log ~rounds:!index;
      Ok (from, stats_for topo ~rounds:!index)

let run ?log topo set =
  let log = match log with Some l -> l | None -> Cst.Exec_log.create () in
  match simulate ~log topo set with
  | Error e -> Error e
  | Ok (from, stats) ->
      let sched =
        Schedule.of_log ~from ~set ~topo ~cycles:stats.cycles log
      in
      Ok (sched, stats)

let run_log ~log topo set =
  match simulate ~log topo set with
  | Error e -> Error e
  | Ok (_, stats) -> Ok stats

let run_exn ?log topo set =
  match run ?log topo set with
  | Ok r -> r
  | Error e -> invalid_arg (Format.asprintf "%a" Sched_error.pp e)
