(* Register interpretation for the left-oriented algorithm (mirror of
   Step 1.3): m = min(S_R, D_L) matched pairs (source right, destination
   left); sr = S_R - m right sources passing above; sl = S_L (left
   sources always pass above); dl = D_L - m unmatched left destinations;
   dr = D_R (right destinations always come from above).  Source request
   indices count from the right, destination indices from the left. *)

let validate set =
  match
    Array.find_opt Cst_comm.Comm.is_right_oriented
      (Cst_comm.Comm_set.comms set)
  with
  | Some c -> Error (Csa.Not_well_nested (Cst_comm.Well_nested.Not_right_oriented c))
  | None -> (
      (* Interval structure (hence crossing) is orientation-blind: check
         well-nestedness on the flipped set. *)
      let flipped =
        Cst_comm.Comm_set.create_exn ~n:(Cst_comm.Comm_set.n set)
          (Array.to_list (Cst_comm.Comm_set.comms set)
          |> List.map (fun (c : Cst_comm.Comm.t) ->
                 Cst_comm.Comm.make ~src:c.dst ~dst:c.src))
      in
      match Cst_comm.Well_nested.check flipped with
      | Ok _ -> Ok ()
      | Error (Cst_comm.Well_nested.Crossing (a, b)) ->
          Error
            (Csa.Not_well_nested
               (Cst_comm.Well_nested.Crossing
                  ( Cst_comm.Comm.make ~src:a.dst ~dst:a.src,
                    Cst_comm.Comm.make ~src:b.dst ~dst:b.src )))
      | Error v -> Error (Csa.Not_well_nested v))

let phase1 topo set =
  let leaves = Cst.Topology.leaves topo in
  let num = 2 * leaves in
  let s_up = Array.make num 0 and d_up = Array.make num 0 in
  let states = Array.init leaves (fun _ -> Csa_state.zero ()) in
  let roles = Cst_comm.Comm_set.roles set in
  for pe = 0 to leaves - 1 do
    let node = Cst.Topology.node_of_pe topo pe in
    if pe < Array.length roles then
      match roles.(pe) with
      | Cst_comm.Comm_set.Source _ -> s_up.(node) <- 1
      | Cst_comm.Comm_set.Dest _ -> d_up.(node) <- 1
      | Cst_comm.Comm_set.Idle -> ()
  done;
  Cst.Topology.iter_internal_bottom_up topo (fun u ->
      let y = Cst.Topology.left topo u and z = Cst.Topology.right topo u in
      let s_l = s_up.(y) and d_l = d_up.(y) in
      let s_r = s_up.(z) and d_r = d_up.(z) in
      let m = min s_r d_l in
      states.(u) <-
        Csa_state.make ~m ~sl:s_l ~dl:(d_l - m) ~sr:(s_r - m) ~dr:d_r;
      s_up.(u) <- s_l + (s_r - m);
      d_up.(u) <- d_l - m + d_r);
  assert (s_up.(Cst.Topology.root) = 0 && d_up.(Cst.Topology.root) = 0);
  states

let configure (st : Csa_state.t) (msg : Downmsg.t) =
  let cfg = ref Cst.Switch_config.empty in
  let connect ~output ~input =
    cfg := Cst.Switch_config.set !cfg ~output ~input
  in
  let ri_used = ref false and lo_used = ref false in
  let left_s = ref None and left_d = ref None in
  let right_s = ref None and right_d = ref None in
  (match msg.Downmsg.sreq with
  | None -> ()
  | Some x ->
      if x < st.sr then begin
        connect ~output:Cst.Side.P ~input:Cst.Side.R;
        ri_used := true;
        st.sr <- st.sr - 1;
        right_s := Some x
      end
      else begin
        assert (x - st.sr < st.sl);
        connect ~output:Cst.Side.P ~input:Cst.Side.L;
        st.sl <- st.sl - 1;
        left_s := Some (x - st.sr)
      end);
  (match msg.Downmsg.dreq with
  | None -> ()
  | Some x ->
      if x < st.dl then begin
        connect ~output:Cst.Side.L ~input:Cst.Side.P;
        lo_used := true;
        st.dl <- st.dl - 1;
        left_d := Some x
      end
      else begin
        assert (x - st.dl < st.dr);
        connect ~output:Cst.Side.R ~input:Cst.Side.P;
        st.dr <- st.dr - 1;
        right_d := Some (x - st.dl)
      end);
  let scheduled_matched =
    if st.m > 0 && (not !ri_used) && not !lo_used then begin
      connect ~output:Cst.Side.L ~input:Cst.Side.R;
      st.m <- st.m - 1;
      right_s := Some st.sr;
      left_d := Some st.dl;
      true
    end
    else false
  in
  {
    Round.config = !cfg;
    to_left = { Downmsg.sreq = !left_s; dreq = !left_d };
    to_right = { Downmsg.sreq = !right_s; dreq = !right_d };
    scheduled_matched;
  }

let sweep topo states =
  let leaves = Cst.Topology.leaves topo in
  let wants = Array.make leaves Cst.Switch_config.empty in
  let sources = ref [] and dests = ref [] in
  let matched = ref 0 in
  let rec go node (msg : Downmsg.t) =
    if Cst.Topology.is_leaf topo node then begin
      let pe = Cst.Topology.pe_of_node topo node in
      (match msg.sreq with
      | Some 0 -> sources := pe :: !sources
      | None -> ()
      | Some _ -> assert false);
      (match msg.dreq with
      | Some 0 -> dests := pe :: !dests
      | None -> ()
      | Some _ -> assert false)
    end
    else begin
      let d = configure states.(node) msg in
      wants.(node) <- d.Round.config;
      if d.scheduled_matched then incr matched;
      go (Cst.Topology.left topo node) d.to_left;
      go (Cst.Topology.right topo node) d.to_right
    end
  in
  go Cst.Topology.root Downmsg.null;
  {
    Round.wants;
    sources = List.rev !sources;
    dests = List.rev !dests;
    matched_count = !matched;
  }

let run ?net ?log topo set =
  let leaves = Cst.Topology.leaves topo in
  if Cst_comm.Comm_set.n set > leaves then
    Error (Csa.Too_large { n = Cst_comm.Comm_set.n set; leaves })
  else
    match validate set with
    | Error e -> Error e
    | Ok () ->
        let states = phase1 topo set in
        let net =
          match net with
          | Some net ->
              if log <> None then
                invalid_arg "Left.run: ?log and ?net are exclusive";
              if Cst.Topology.leaves (Cst.Net.topology net) <> leaves then
                invalid_arg "Left.run: net topology mismatch";
              net
          | None -> Cst.Net.create ?log topo
        in
        let log = Cst.Net.log net in
        let from = Cst.Exec_log.length log in
        Cst.Exec_log.phase_done log ~levels:(Cst.Topology.levels topo);
        let remaining =
          ref
            (Array.fold_left (fun acc (s : Csa_state.t) -> acc + s.m) 0 states)
        in
        let index = ref 0 in
        try
        while !remaining > 0 do
          incr index;
          Cst.Exec_log.round_begin log ~index:!index;
          let out = sweep topo states in
          if out.matched_count = 0 then
            raise (Csa.Stall { round = !index; remaining = !remaining });
          for node = 1 to leaves - 1 do
            Cst.Net.reconfigure_lazy net ~node ~want:out.wants.(node)
          done;
          List.iter (fun pe -> Cst.Net.pe_write net ~pe pe) out.sources;
          let deliveries = Cst.Data_plane.transfer net ~sources:out.sources in
          List.iter
            (fun (src, dst) -> Cst.Exec_log.deliver log ~src ~dst)
            deliveries;
          assert (List.length deliveries = out.matched_count);
          remaining := !remaining - out.matched_count
        done;
        Cst.Exec_log.run_end log ~rounds:!index;
        Ok
          (Schedule.of_log ~from ~set ~topo
             ~cycles:(Cst.Topology.spec_cycles topo ~rounds:!index)
             log)
        with Csa.Stall { round; remaining } ->
          Error (Csa.Stalled { round; remaining })

let run_exn ?net ?log topo set =
  match run ?net ?log topo set with
  | Ok s -> s
  | Error e -> invalid_arg (Format.asprintf "%a" Csa.pp_error e)
