let config_for_batch topo batch =
  let leaves = Cst.Topology.leaves topo in
  let wants = Array.make leaves Cst.Switch_config.empty in
  let connect node ~output ~input =
    try wants.(node) <- Cst.Switch_config.set wants.(node) ~output ~input
    with Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf
           "Round_runner.config_for_batch: conflicting demands at switch %d"
           node)
  in
  List.iter
    (fun (c : Cst_comm.Comm.t) ->
      if not (Cst_comm.Comm.is_right_oriented c) then
        invalid_arg "Round_runner.config_for_batch: left-oriented member";
      let s_leaf = Cst.Topology.node_of_pe topo c.src in
      let d_leaf = Cst.Topology.node_of_pe topo c.dst in
      let lca = Cst.Topology.lca topo s_leaf d_leaf in
      (* Upward legs: every switch strictly between the source leaf and the
         LCA forwards its child input to the parent output. *)
      let rec up node =
        let p = Cst.Topology.parent topo node in
        if p <> lca then begin
          connect p ~output:Cst.Side.P ~input:(Cst.Topology.child_side topo node);
          up p
        end
        else node
      in
      let rec down node =
        let p = Cst.Topology.parent topo node in
        if p <> lca then begin
          connect p
            ~output:(Cst.Topology.child_side topo node)
            ~input:Cst.Side.P;
          down p
        end
        else node
      in
      let s_child = up s_leaf and d_child = down d_leaf in
      (* At the LCA the source-side child input turns toward the
         destination-side child output. *)
      connect lca
        ~output:(Cst.Topology.child_side topo d_child)
        ~input:(Cst.Topology.child_side topo s_child))
    batch;
  wants

(* Per-run workspace for the batch loop: wants are computed only for the
   switches on the batch's tree paths (tracked in a dirty list stamped per
   batch), so a round costs O(paths * depth) instead of O(n) even though
   the per-round scheduler still installs its configuration eagerly. *)
type workspace = {
  wants : Cst.Switch_config.t array;  (* indexed by internal node id *)
  stamp : int array;  (* batch number that last touched the slot *)
  mutable dirty : int list;  (* this batch's touched switches *)
  mutable prev_dirty : int list;  (* last batch's, to clear eagerly *)
}

let run ~name:_ ?log topo set batches =
  let leaves = Cst.Topology.leaves topo in
  let scheduled =
    List.sort Cst_comm.Comm.compare (List.concat batches)
  in
  let members =
    List.sort Cst_comm.Comm.compare
      (Array.to_list (Cst_comm.Comm_set.comms set))
  in
  if not (List.equal Cst_comm.Comm.equal scheduled members) then
    invalid_arg "Round_runner.run: batches do not partition the set";
  let net = Cst.Net.create ?log topo in
  let log = Cst.Net.log net in
  let from = Cst.Exec_log.length log in
  let ws =
    {
      wants = Array.make leaves Cst.Switch_config.empty;
      stamp = Array.make leaves 0;
      dirty = [];
      prev_dirty = [];
    }
  in
  List.iteri
    (fun i batch ->
        let batch_no = i + 1 in
        Cst.Exec_log.round_begin log ~index:batch_no;
        let touch node =
          if ws.stamp.(node) <> batch_no then begin
            ws.stamp.(node) <- batch_no;
            ws.wants.(node) <- Cst.Switch_config.empty;
            ws.dirty <- node :: ws.dirty
          end
        in
        let connect node ~output ~input =
          touch node;
          try
            ws.wants.(node) <-
              Cst.Switch_config.set ws.wants.(node) ~output ~input
          with Invalid_argument _ ->
            invalid_arg
              (Printf.sprintf
                 "Round_runner.run: conflicting demands at switch %d" node)
        in
        ws.dirty <- [];
        List.iter
          (fun (c : Cst_comm.Comm.t) ->
            if not (Cst_comm.Comm.is_right_oriented c) then
              invalid_arg "Round_runner.run: left-oriented member";
            let s_leaf = Cst.Topology.node_of_pe topo c.src in
            let d_leaf = Cst.Topology.node_of_pe topo c.dst in
            let lca = Cst.Topology.lca topo s_leaf d_leaf in
            let rec up node =
              let p = Cst.Topology.parent_u node in
              if p <> lca then begin
                connect p ~output:Cst.Side.P
                  ~input:(Cst.Topology.child_side topo node);
                up p
              end
              else node
            in
            let rec down node =
              let p = Cst.Topology.parent_u node in
              if p <> lca then begin
                connect p
                  ~output:(Cst.Topology.child_side topo node)
                  ~input:Cst.Side.P;
                down p
              end
              else node
            in
            let s_child = up s_leaf and d_child = down d_leaf in
            connect lca
              ~output:(Cst.Topology.child_side topo d_child)
              ~input:(Cst.Topology.child_side topo s_child))
          batch;
        (* Eager per-round installation, but only where it can matter:
           switches demanded this round, plus last round's switches not
           demanded again (reconfiguring them to empty is what charges
           their disconnects — exactly what the full scan used to do;
           everywhere else empty -> empty is a no-op). *)
        List.iter
          (fun node -> Cst.Net.reconfigure net ~node ws.wants.(node))
          ws.dirty;
        List.iter
          (fun node ->
            if ws.stamp.(node) <> batch_no then
              Cst.Net.reconfigure net ~node Cst.Switch_config.empty)
          ws.prev_dirty;
        ws.prev_dirty <- ws.dirty;
        let sources =
          List.sort compare (List.map (fun (c : Cst_comm.Comm.t) -> c.src) batch)
        in
        List.iter (fun pe -> Cst.Net.pe_write net ~pe pe) sources;
        let deliveries = Cst.Data_plane.transfer net ~sources in
        List.iter
          (fun (src, dst) -> Cst.Exec_log.deliver log ~src ~dst)
          deliveries;
        assert (List.length deliveries = List.length batch))
    batches;
  let num_rounds = List.length batches in
  Cst.Exec_log.run_end log ~rounds:num_rounds;
  Padr.Schedule.of_log ~from ~set ~topo
    ~cycles:(Cst.Topology.spec_cycles topo ~rounds:num_rounds)
    log
