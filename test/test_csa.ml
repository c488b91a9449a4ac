open Helpers

let test_hand_trace_rounds () =
  let s = schedule ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  check_int "two rounds" 2 (Padr.Schedule.num_rounds s);
  check_true "round 1" (s.rounds.(0).deliveries = [ (0, 7) ]);
  check_true "round 2" (List.sort compare s.rounds.(1).deliveries = [ (1, 2); (3, 4) ]);
  check_verified s

let test_independent_matched_same_round () =
  (* (0,7) at the root and (2,3) at a low switch are link-disjoint: the
     CSA schedules both in round 1 even though they are nested. *)
  let s = schedule ~n:8 [ (0, 7); (2, 3) ] in
  check_int "one round" 1 (Padr.Schedule.num_rounds s);
  check_verified s

let test_full_onion () =
  let s = Padr.schedule_exn (Cst_workloads.Patterns.full_onion_exn ~n:16) in
  check_int "width n/2 rounds" 8 (Padr.Schedule.num_rounds s);
  check_true "outermost first"
    (s.rounds.(0).deliveries = [ (0, 15) ]);
  check_true "innermost last"
    (s.rounds.(7).deliveries = [ (7, 8) ]);
  check_verified s

let test_fig2 () =
  let s = Padr.schedule_exn (Cst_workloads.Patterns.fig2 ()) in
  check_int "width 3" 3 s.width;
  check_int "three rounds" 3 (Padr.Schedule.num_rounds s);
  check_verified s

let test_fig3b () =
  let s = Padr.schedule_exn (Cst_workloads.Patterns.fig3b ()) in
  check_verified s

let test_empty_set () =
  let s = schedule ~n:8 [] in
  check_int "no rounds" 0 (Padr.Schedule.num_rounds s);
  check_int "no power" 0 s.power.total_connects;
  check_verified s

let test_single_comm () =
  let s = schedule ~n:8 [ (2, 5) ] in
  check_int "one round" 1 (Padr.Schedule.num_rounds s);
  check_true "delivered" (Padr.Schedule.all_deliveries s = [ (2, 5) ]);
  check_verified s

let test_neighbours () =
  let s = schedule ~n:8 [ (0, 1); (2, 3); (4, 5); (6, 7) ] in
  check_int "one round" 1 (Padr.Schedule.num_rounds s);
  check_int "all at once" 4 (List.length s.rounds.(0).deliveries);
  check_verified s

let test_rejects_crossing () =
  match Padr.schedule (set ~n:8 [ (0, 2); (1, 3) ]) with
  | Error (Padr.Csa.Not_well_nested (Cst_comm.Well_nested.Crossing _)) -> ()
  | _ -> Alcotest.fail "expected Not_well_nested/Crossing"

let test_rejects_left_oriented () =
  match Padr.schedule (set ~n:8 [ (3, 1) ]) with
  | Error (Padr.Csa.Not_well_nested (Cst_comm.Well_nested.Not_right_oriented _)) -> ()
  | _ -> Alcotest.fail "expected Not_right_oriented"

let test_rejects_oversized () =
  match Padr.Csa.run (topo 4) (set ~n:8 [ (0, 7) ]) with
  | Error (Padr.Csa.Too_large { n = 8; leaves = 4 }) -> ()
  | _ -> Alcotest.fail "expected Too_large"

let test_explicit_leaves () =
  let s = Padr.schedule_exn ~leaves:32 (set ~n:8 [ (0, 7) ]) in
  check_int "leaves honored" 32 s.leaves;
  check_verified s

let test_eager_same_rounds () =
  let st = set ~n:16 [ (0, 15); (1, 6); (2, 3); (4, 5); (8, 13) ] in
  let lazy_s = Padr.Csa.run_exn (topo 16) st in
  let eager_s = Padr.Csa.run_exn ~eager_clear:true (topo 16) st in
  check_int "same rounds" (Padr.Schedule.num_rounds lazy_s)
    (Padr.Schedule.num_rounds eager_s);
  check_true "same deliveries"
    (Padr.Schedule.all_deliveries lazy_s = Padr.Schedule.all_deliveries eager_s);
  check_true "eager pays at least as many disconnects"
    (eager_s.power.total_disconnects >= lazy_s.power.total_disconnects)

let test_trace_events () =
  let log = Cst.Exec_log.create () in
  let st = set ~n:8 [ (0, 7); (1, 2) ] in
  let _ = Padr.Csa.run_exn ~log (topo 8) st in
  let events = Cst.Trace.events (Cst.Trace.of_log log) in
  check_true "phase1 first"
    (match events with Cst.Trace.Phase1_done _ :: _ -> true | _ -> false);
  check_true "finished last"
    (match List.rev events with
    | Cst.Trace.Finished { rounds = 2 } :: _ -> true
    | _ -> false);
  check_true "has deliveries"
    (List.exists
       (function Cst.Trace.Delivered { src = 0; dst = 7; _ } -> true | _ -> false)
       events)

let test_cycles_formula () =
  let st = set ~n:16 [ (0, 15); (1, 14) ] in
  let s = Padr.Csa.run_exn (topo 16) st in
  (* levels + rounds * (levels + 1) with levels = 4, rounds = 2 *)
  check_int "cycles" (4 + (2 * 5)) s.cycles

(* [Schedule.of_log ~keep_configs:false] retains no log: the schedule
   streams no snapshot, and every other field equals the default
   derivation's. *)
let test_keep_configs_off () =
  let st = set ~n:8 [ (0, 7) ] in
  let log = Cst.Exec_log.create () in
  let full = Padr.Csa.run_exn ~log (topo 8) st in
  let s =
    Padr.Schedule.of_log ~keep_configs:false ~set:st ~topo:(topo 8)
      ~cycles:full.cycles log
  in
  check_int "snapshots by default" 1 (List.length (snapshots full));
  check_true "no log retained" (Option.is_none s.source);
  check_int "no snapshots" 0 (List.length (snapshots s));
  check_true "same rounds" (s.rounds = full.rounds);
  check_true "same power" (s.power = full.power);
  (* verification still passes minus the replay check *)
  check_verified s

let test_mixed_by_reflection () =
  let st = set ~n:8 [ (0, 3); (7, 4) ] in
  match Padr.Waves.schedule st with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Padr.pp_error e)
  | Ok w ->
      check_int "one wave per orientation" 2 (Padr.Waves.num_waves w);
      check_int "two single-round parts" 2 w.rounds;
      check_true "deliveries in original coordinates"
        (Padr.Waves.deliveries w = [ (0, 3); (7, 4) ])

let test_mixed_right_only () =
  let st = set ~n:8 [ (0, 3) ] in
  match Padr.Waves.schedule st with
  | Ok w ->
      check_true "no left part" (w.left_waves = []);
      check_int "rounds" 1 w.rounds
  | Error _ -> Alcotest.fail "should schedule"

let suite =
  [
    case "hand trace rounds" test_hand_trace_rounds;
    case "independent matched same round" test_independent_matched_same_round;
    case "full onion" test_full_onion;
    case "figure 2" test_fig2;
    case "figure 3b" test_fig3b;
    case "empty set" test_empty_set;
    case "single comm" test_single_comm;
    case "neighbours" test_neighbours;
    case "rejects crossing" test_rejects_crossing;
    case "rejects left-oriented" test_rejects_left_oriented;
    case "rejects oversized" test_rejects_oversized;
    case "explicit leaves" test_explicit_leaves;
    case "eager same rounds" test_eager_same_rounds;
    case "trace events" test_trace_events;
    case "cycles formula" test_cycles_formula;
    case "keep_configs off" test_keep_configs_off;
    case "mixed set by reflection" test_mixed_by_reflection;
    case "mixed set, right part only" test_mixed_right_only;
  ]
