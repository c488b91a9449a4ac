open Helpers

(* Cross-cutting edge cases that don't belong to a single module. *)

let test_minimal_tree () =
  (* the smallest CST: 2 PEs, one switch *)
  let s = schedule ~n:2 [ (0, 1) ] in
  check_int "one round" 1 (Padr.Schedule.num_rounds s);
  check_int "one connect" 1 s.power.total_connects;
  check_verified s

let test_minimal_left () =
  (* a left-oriented member is scheduled by mirroring *)
  match Padr.Waves.schedule (set ~n:2 [ (1, 0) ]) with
  | Ok w ->
      check_true "left part only"
        (w.right_waves = [] && List.length w.left_waves = 1);
      check_int "one round" 1 w.rounds;
      check_true "delivered" (Padr.Waves.deliveries w = [ (1, 0) ])
  | Error e -> Alcotest.failf "%a" Padr.pp_error e

let test_span_full_tree () =
  let n = 4096 in
  let s = Padr.schedule_exn (set ~n [ (0, n - 1) ]) in
  check_int "one round" 1 (Padr.Schedule.num_rounds s);
  (* the path touches 2*log(n) - 1 switches, each set once *)
  check_int "power = path length" (2 * 12 - 1) s.power.total_connects;
  check_verified s

let test_enclosing_over_aligned_pairs () =
  (* An enclosing communication over aligned neighbour pairs shares no
     directed link with any of them: everything fits in one round even
     though the nesting depth is 2. *)
  let n = 64 in
  let inner = List.init 15 (fun i -> (2 + (2 * i), 3 + (2 * i))) in
  let s = Padr.schedule_exn (set ~n ((0, 33) :: inner)) in
  check_int "single round despite nesting" 1 (Padr.Schedule.num_rounds s);
  check_verified s

let test_stale_config_cannot_hijack () =
  (* Configure a stale path, then schedule a conflicting round on the
     same net: the active path must win and deliver correctly. *)
  let t = topo 8 in
  let net = Cst.Net.create t in
  (* stale: 0 -> 7 *)
  let s1 = set ~n:8 [ (0, 7) ] in
  let _ = Padr.Csa.run_exn ~net t s1 in
  (* now 1 -> 6, whose path shares the root *)
  let s2 = set ~n:8 [ (1, 6) ] in
  let sched2 = Padr.Csa.run_exn ~net t s2 in
  check_true "delivered" (Padr.Schedule.all_deliveries sched2 = [ (1, 6) ]);
  (* physically: PE 1's signal reaches 6; PE 0's stale signal reaches no
     ACTIVE destination (it may dead-end or hit an idle leaf) *)
  check_true "no hijack"
    (Cst.Data_plane.route net ~src:1 = Some 6)

let test_engine_on_onion () =
  let s = Cst_workloads.Gen_wn.onion ~n:64 ~width:16 in
  let spec = Padr.Csa.run_exn (topo 64) s in
  let eng, _ = Padr.Engine.run_exn (topo 64) s in
  check_true "engine = spec on the adversarial onion"
    (Padr.Schedule.all_deliveries spec = Padr.Schedule.all_deliveries eng
    && spec.power.total_connects = eng.power.total_connects)

let test_wn_cover_of_onion_is_single_layer () =
  let s = Cst_workloads.Gen_wn.onion ~n:32 ~width:8 in
  check_int "nested sets need one wave" 1 (Cst_comm.Wn_cover.num_layers s)

let test_waves_width_one_crossing () =
  (* two crossing comms whose link footprints are disjoint anyway: still
     needs two waves (the cover is purely structural) but one round each *)
  let s = set ~n:16 [ (0, 8); (4, 12) ] in
  let w = Padr.Waves.schedule_exn s in
  check_int "two waves" 2 (Padr.Waves.num_waves w);
  check_true "all delivered"
    (Padr.Waves.deliveries w = [ (0, 8); (4, 12) ])

let test_mixed_same_pe_position_reuse () =
  (* a PE may be endpoint of one comm only, but mixed sets can use
     adjacent PEs in both directions *)
  let s = set ~n:8 [ (0, 3); (4, 1) ] in
  match Padr.Waves.schedule s with
  | Ok w ->
      check_true "both delivered"
        (Padr.Waves.deliveries w = [ (0, 3); (4, 1) ])
  | Error _ -> Alcotest.fail "should schedule"

let test_broadcast_two_pes () =
  let r = Cst_srga.Broadcast.run ~n:2 ~origin:1 in
  check_int "one stage" 1 r.stages;
  check_true "both covered" (r.covered = [ 0; 1 ])

let test_scan_two_pes () =
  let r = Cst_algos.Scan.run Cst_algos.Scan.sum [| 5; 7 |] in
  check_true "exclusive" (r.exclusive = [| 0; 5 |]);
  check_true "inclusive" (r.inclusive = [| 5; 12 |])

let test_verify_rejects_fake_width_claim () =
  let s = schedule ~n:8 [ (0, 7) ] in
  let fake = { s with width = 5 } in
  let r = Padr.verify fake in
  check_true "width is recomputed, not trusted" r.ok
(* note: verify recomputes width from the set, so a tampered width field
   cannot fool it *)

let test_comm_set_large_parse () =
  let n = 512 in
  let s = Cst_workloads.Gen_wn.uniform (Cst_util.Prng.create 8) ~n ~density:0.9 in
  match Cst_comm.Comm_set.of_string (Cst_comm.Comm_set.to_string s) with
  | Ok s' -> check_true "round trip at scale" (Cst_comm.Comm_set.equal s s')
  | Error e -> Alcotest.fail e

let suite =
  [
    case "minimal tree" test_minimal_tree;
    case "minimal left" test_minimal_left;
    case "span full tree" test_span_full_tree;
    case "enclosing over aligned pairs" test_enclosing_over_aligned_pairs;
    case "stale config cannot hijack" test_stale_config_cannot_hijack;
    case "engine on onion" test_engine_on_onion;
    case "wn cover of onion" test_wn_cover_of_onion_is_single_layer;
    case "waves of width-one crossing" test_waves_width_one_crossing;
    case "mixed adjacent directions" test_mixed_same_pe_position_reuse;
    case "broadcast two PEs" test_broadcast_two_pes;
    case "scan two PEs" test_scan_two_pes;
    case "verify recomputes width" test_verify_rejects_fake_width_claim;
    case "comm set parse at scale" test_comm_set_large_parse;
  ]
