open Helpers

let mk ~m ~sl ~dl ~sr ~dr = Padr.Csa_state.make ~m ~sl ~dl ~sr ~dr

let driver cfg side = Cst.Switch_config.driver cfg side

let test_null_with_matched () =
  let st = mk ~m:2 ~sl:1 ~dl:0 ~sr:0 ~dr:3 in
  let d = Padr.Round.configure st Padr.Downmsg.null in
  check_true "matched scheduled" d.scheduled_matched;
  check_true "l_i -> r_o" (driver d.config Cst.Side.R = Some Cst.Side.L);
  check_int "m decremented" 1 st.m;
  check_true "source request at sl" (d.to_left = Padr.Downmsg.s 1);
  check_true "dest request at dr" (d.to_right = Padr.Downmsg.d 3)

let test_null_without_matched () =
  let st = mk ~m:0 ~sl:2 ~dl:1 ~sr:0 ~dr:0 in
  let d = Padr.Round.configure st Padr.Downmsg.null in
  check_true "nothing scheduled" (not d.scheduled_matched);
  check_true "no connections" (Cst.Switch_config.is_empty d.config);
  check_true "children idle"
    (d.to_left = Padr.Downmsg.null && d.to_right = Padr.Downmsg.null);
  check_true "state untouched"
    (Padr.Csa_state.equal st (mk ~m:0 ~sl:2 ~dl:1 ~sr:0 ~dr:0))

let test_sreq_routes_left () =
  let st = mk ~m:1 ~sl:2 ~dl:0 ~sr:1 ~dr:0 in
  let d = Padr.Round.configure st (Padr.Downmsg.s 1) in
  check_true "l_i -> p_o" (driver d.config Cst.Side.P = Some Cst.Side.L);
  check_int "sl decremented" 1 st.sl;
  check_true "forwarded left" (d.to_left = Padr.Downmsg.s 1);
  check_true "right idle" (d.to_right = Padr.Downmsg.null);
  (* l_i is taken: the matched pair must wait. *)
  check_true "matched blocked" (not d.scheduled_matched);
  check_int "m intact" 1 st.m

let test_sreq_routes_right_and_matched_fires () =
  let st = mk ~m:1 ~sl:2 ~dl:0 ~sr:3 ~dr:1 in
  let d = Padr.Round.configure st (Padr.Downmsg.s 2) in
  check_true "r_i -> p_o" (driver d.config Cst.Side.P = Some Cst.Side.R);
  check_int "sr decremented" 2 st.sr;
  check_true "matched fires" d.scheduled_matched;
  check_true "l_i -> r_o too" (driver d.config Cst.Side.R = Some Cst.Side.L);
  (* right child gets the pass-through source (index 2 - sl = 0) and the
     matched destination (index dr = 1). *)
  check_true "right gets [s,d]" (d.to_right = Padr.Downmsg.sd 0 1);
  check_true "left gets matched source" (d.to_left = Padr.Downmsg.s 2)

let test_dreq_routes_right () =
  let st = mk ~m:0 ~sl:0 ~dl:1 ~sr:0 ~dr:2 in
  let d = Padr.Round.configure st (Padr.Downmsg.d 0) in
  check_true "p_i -> r_o" (driver d.config Cst.Side.R = Some Cst.Side.P);
  check_int "dr decremented" 1 st.dr;
  check_true "forwarded right" (d.to_right = Padr.Downmsg.d 0);
  check_true "left idle" (d.to_left = Padr.Downmsg.null)

let test_dreq_routes_left () =
  let st = mk ~m:0 ~sl:0 ~dl:2 ~sr:0 ~dr:1 in
  let d = Padr.Round.configure st (Padr.Downmsg.d 2) in
  check_true "p_i -> l_o" (driver d.config Cst.Side.L = Some Cst.Side.P);
  check_int "dl decremented" 1 st.dl;
  check_true "index shifted" (d.to_left = Padr.Downmsg.d 1)

let test_dreq_right_blocks_matched () =
  let st = mk ~m:1 ~sl:0 ~dl:0 ~sr:0 ~dr:1 in
  let d = Padr.Round.configure st (Padr.Downmsg.d 0) in
  check_true "matched blocked by r_o" (not d.scheduled_matched);
  check_int "m intact" 1 st.m

let test_dreq_left_allows_matched () =
  let st = mk ~m:1 ~sl:0 ~dl:1 ~sr:0 ~dr:0 in
  let d = Padr.Round.configure st (Padr.Downmsg.d 0) in
  check_true "matched fires" d.scheduled_matched;
  check_true "p_i -> l_o" (driver d.config Cst.Side.L = Some Cst.Side.P);
  check_true "l_i -> r_o" (driver d.config Cst.Side.R = Some Cst.Side.L);
  check_true "left gets [s,d]" (d.to_left = Padr.Downmsg.sd 0 0)

let test_sd_full_load () =
  (* Pass-through source to the right, pass-through dest to the left, own
     matched pair: all three outputs in use. *)
  let st = mk ~m:1 ~sl:0 ~dl:1 ~sr:1 ~dr:0 in
  let d = Padr.Round.configure st (Padr.Downmsg.sd 0 0) in
  check_true "matched fires" d.scheduled_matched;
  check_int "three connections" 3
    (Cst.Switch_config.connection_count d.config);
  check_true "left [s,d]" (d.to_left = Padr.Downmsg.sd 0 0);
  check_true "right [s,d]" (d.to_right = Padr.Downmsg.sd 0 0)

let test_sweep_marks_leaves () =
  let t = topo 8 in
  let s = set ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  Padr.Round.with_workspace t @@ fun ws ->
  check_int "three matches to schedule" 3 (Padr.Round.prepare ws t s);
  let out = Padr.Round.sweep t ws in
  check_int "one comm scheduled" 1 out.matched_count;
  check_true "round 1 is the outermost" (out.sources = [ 0 ] && out.dests = [ 7 ]);
  let out2 = Padr.Round.sweep t ws in
  check_int "round 2 schedules the rest" 2 out2.matched_count;
  check_true "round 2 leaves" (out2.sources = [ 1; 3 ] && out2.dests = [ 2; 4 ]);
  let out3 = Padr.Round.sweep t ws in
  check_int "round 3 empty" 0 out3.matched_count

let test_sweep_drains_state () =
  let t = topo 16 in
  let s = set ~n:16 [ (0, 15); (1, 6); (2, 3); (4, 5); (8, 13) ] in
  Padr.Round.with_workspace t @@ fun ws ->
  ignore (Padr.Round.prepare ws t s);
  let total = ref 0 in
  for _ = 1 to Cst_comm.Width.width ~leaves:16 s do
    total := !total + (Padr.Round.sweep t ws).matched_count
  done;
  check_int "all scheduled" 5 !total;
  for node = 1 to 15 do
    check_true "drained" (Padr.Csa_state.is_drained ws.states.(node));
    check_int "nothing pending" 0 ws.pending.(node)
  done

(* Round by round, the pruned sweep schedules what the unpruned
   reference does, wants the same connections of every switch, and
   lists the switches it configured in ascending node order. *)
let test_sweep_matches_reference () =
  let t = topo 64 in
  let s =
    Cst_workloads.Gen_wn.uniform (Cst_util.Prng.create 5) ~n:64 ~density:0.9
  in
  let states = (Padr.Phase1.run t s).states in
  Padr.Round.with_workspace t @@ fun ws ->
  let remaining = ref (Padr.Round.prepare ws t s) in
  check_true "a multi-round set" (!remaining > 8);
  while !remaining > 0 do
    let expected = Reference.sweep t states in
    let out = Padr.Round.sweep t ws in
    check_int "matched" expected.matched_count out.matched_count;
    check_true "sources" (expected.sources = out.sources);
    check_true "dests" (expected.dests = out.dests);
    for node = 1 to 63 do
      check_true "want"
        (Cst.Switch_config.equal expected.wants.(node) ws.wants.(node))
    done;
    let configured = ref [] in
    Padr.Round.iter_configured ws (fun node want ->
        configured := (node, want) :: !configured);
    check_true "configured switches, ascending"
      (List.rev !configured
      = List.filter
          (fun (_, want) -> not (Cst.Switch_config.is_empty want))
          (List.init 63 (fun i -> (i + 1, expected.wants.(i + 1)))));
    remaining := !remaining - out.matched_count
  done

let test_downmsg_shapes () =
  check_true "null" (Padr.Downmsg.shape Padr.Downmsg.null = "[null,null]");
  check_true "s" (Padr.Downmsg.shape (Padr.Downmsg.s 0) = "[s,null]");
  check_true "d" (Padr.Downmsg.shape (Padr.Downmsg.d 1) = "[d,null]");
  check_true "sd" (Padr.Downmsg.shape (Padr.Downmsg.sd 0 1) = "[s,d]");
  check_int "constant words" 4 (Padr.Downmsg.words Padr.Downmsg.null)

let suite =
  [
    case "[null,null] with matched" test_null_with_matched;
    case "[null,null] without matched" test_null_without_matched;
    case "[s] routes left" test_sreq_routes_left;
    case "[s] routes right, matched fires" test_sreq_routes_right_and_matched_fires;
    case "[d] routes right" test_dreq_routes_right;
    case "[d] routes left" test_dreq_routes_left;
    case "[d] right blocks matched" test_dreq_right_blocks_matched;
    case "[d] left allows matched" test_dreq_left_allows_matched;
    case "[s,d] full load" test_sd_full_load;
    case "sweep marks leaves" test_sweep_marks_leaves;
    case "sweep drains state" test_sweep_drains_state;
    case "sweep matches the reference" test_sweep_matches_reference;
    case "downmsg shapes" test_downmsg_shapes;
  ]
