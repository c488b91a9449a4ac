open Helpers

let sample = set ~n:16 [ (0, 15); (1, 6); (2, 3); (4, 5); (8, 13); (9, 10) ]

let check_algo (a : Cst_baselines.Registry.algo) =
  let t = topo 16 in
  let s = a.run t sample in
  let r =
    Padr.Verify.schedule ~check_rounds_optimal:a.caps.round_optimal t sample s
  in
  check_true (a.name ^ " verifies: " ^ String.concat ";" r.issues) r.ok

let test_all_correct () =
  List.iter check_algo Cst_baselines.Registry.all

let test_registry_lookup () =
  check_true "finds csa" (Cst_baselines.Registry.find "csa" <> None);
  check_true "unknown" (Cst_baselines.Registry.find "quantum" = None);
  check_int "six algorithms" 6 (List.length Cst_baselines.Registry.names)

let test_naive_round_count () =
  let s = Cst_baselines.Naive.run (topo 16) sample in
  check_int "one comm per round" (Cst_comm.Comm_set.size sample)
    (Padr.Schedule.num_rounds s)

let test_roy_ids_valid_coloring () =
  let t = topo 16 in
  let ids = Cst_baselines.Roy_id.assign_ids t sample in
  List.iter
    (fun (c1, id1) ->
      List.iter
        (fun (c2, id2) ->
          if (not (Cst_comm.Comm.equal c1 c2)) && id1 = id2 then
            check_true "same id never conflicts"
              (not (Cst.Compat.conflict t c1 c2)))
        ids)
    ids

let test_roy_rounds_near_width () =
  let t = topo 64 in
  let rng = Cst_util.Prng.create 3 in
  for _ = 1 to 20 do
    let s = Cst_workloads.Gen_wn.uniform rng ~n:64 ~density:0.8 in
    let w = Cst_comm.Width.width ~leaves:64 s in
    let ids = Cst_baselines.Roy_id.num_ids t s in
    check_true
      (Printf.sprintf "w <= ids (%d <= %d)" w ids)
      (w <= max 1 ids || Cst_comm.Comm_set.size s = 0);
    check_true
      (Printf.sprintf "ids within 2x width (%d vs %d)" ids (2 * w))
      (ids <= max 1 (2 * w))
  done

let test_depth_rounds () =
  (* Depth scheduling uses max nesting depth, which exceeds the width on
     sets like {(0,7),(2,3)} — the CSA stays width-exact. *)
  let t = topo 8 in
  let s = set ~n:8 [ (0, 7); (2, 3) ] in
  check_int "depth needs 2 rounds" 2 (Cst_baselines.Depth_sched.rounds_needed s);
  let depth_sched = Cst_baselines.Depth_sched.run t s in
  let csa_sched = Padr.Csa.run_exn t s in
  check_int "depth rounds" 2 (Padr.Schedule.num_rounds depth_sched);
  check_int "csa rounds" 1 (Padr.Schedule.num_rounds csa_sched);
  check_true "depth still delivers"
    (Padr.Schedule.all_deliveries depth_sched = Cst_comm.Comm_set.matching s)

let test_depth_rejects_crossing () =
  check_raises_invalid "crossing set" (fun () ->
      Cst_baselines.Depth_sched.run (topo 8) (set ~n:8 [ (0, 2); (1, 3) ]))

let test_greedy_batches_compatible () =
  let t = topo 16 in
  let batches = Cst_baselines.Greedy.batches t sample in
  List.iter
    (fun b -> check_true "batch compatible" (Cst.Compat.is_compatible t b))
    batches;
  check_int "partition size" (Cst_comm.Comm_set.size sample)
    (List.length (List.concat batches))

let test_rounds_lower_bound () =
  let t = topo 16 in
  let w = Cst_baselines.Bounds.rounds t sample in
  List.iter
    (fun (a : Cst_baselines.Registry.algo) ->
      let s = a.run t sample in
      check_true
        (a.name ^ " respects the width lower bound")
        (Padr.Schedule.num_rounds s >= w))
    Cst_baselines.Registry.all

let test_min_connects_bound () =
  let t = topo 16 in
  let floor_ = Cst_baselines.Bounds.min_connects_per_switch t sample in
  let s = Padr.Csa.run_exn t sample in
  Array.iteri
    (fun node f ->
      if node >= 1 && node < 16 then
        check_true
          (Printf.sprintf "switch %d: csa >= floor" node)
          (Cst.Power_meter.connects s.power.ledger ~node >= f))
    floor_

let test_min_total_connects () =
  let t = topo 16 in
  let s = Padr.Csa.run_exn t sample in
  check_true "total floor"
    (s.power.total_connects >= Cst_baselines.Bounds.min_total_connects t sample)

let test_onion_writes_contrast () =
  (* The headline behaviour: ID scheduling pays w writes at the root
     switches, CSA pays O(1). *)
  let n = 64 in
  let t = topo n in
  let s = Cst_workloads.Gen_wn.onion ~n ~width:16 in
  let csa = Padr.Csa.run_exn t s in
  let roy = Cst_baselines.Roy_id.run t s in
  check_true "csa constant writes" (csa.power.max_writes_per_switch <= 4);
  check_int "roy writes scale with width" 16 roy.power.max_writes_per_switch

let test_runner_rejects_bad_partition () =
  let t = topo 8 in
  let s = set ~n:8 [ (0, 1); (2, 3) ] in
  check_raises_invalid "not a partition" (fun () ->
      Cst_baselines.Round_runner.run ~name:"bad" t s [ [ comm (0, 1) ] ])

let test_runner_rejects_conflicting_batch () =
  let t = topo 8 in
  check_raises_invalid "conflicting batch" (fun () ->
      Cst_baselines.Round_runner.config_for_batch t
        [ comm (0, 7); comm (1, 6) ])

let test_config_for_batch_routes () =
  let t = topo 8 in
  let wants =
    Cst_baselines.Round_runner.config_for_batch t [ comm (0, 7); comm (2, 3) ]
  in
  let net = Cst.Net.create t in
  for node = 1 to 7 do
    Cst.Net.reconfigure net ~node wants.(node)
  done;
  check_true "0 -> 7" (Cst.Data_plane.route net ~src:0 = Some 7);
  check_true "2 -> 3" (Cst.Data_plane.route net ~src:2 = Some 3)

let prop_baselines_correct =
  prop ~count:40 "all baselines deliver the matching" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      List.for_all
        (fun (a : Cst_baselines.Registry.algo) ->
          let sched = a.run t s in
          Padr.Schedule.all_deliveries sched = Cst_comm.Comm_set.matching s)
        Cst_baselines.Registry.all)

let prop_csa_beats_baseline_writes =
  prop ~count:40 "CSA never writes more than ID scheduling" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      let csa = Padr.Csa.run_exn t s in
      let roy = Cst_baselines.Roy_id.run t s in
      csa.power.max_writes_per_switch <= roy.power.max_writes_per_switch
      && csa.power.total_writes <= roy.power.total_writes)

let suite =
  [
    case "all algorithms correct on sample" test_all_correct;
    case "registry lookup" test_registry_lookup;
    case "naive round count" test_naive_round_count;
    case "roy ids form a valid coloring" test_roy_ids_valid_coloring;
    case "roy rounds near width" test_roy_rounds_near_width;
    case "depth rounds exceed width" test_depth_rounds;
    case "depth rejects crossing" test_depth_rejects_crossing;
    case "greedy batches compatible" test_greedy_batches_compatible;
    case "rounds lower bound" test_rounds_lower_bound;
    case "per-switch connect floor" test_min_connects_bound;
    case "total connect floor" test_min_total_connects;
    case "onion writes contrast" test_onion_writes_contrast;
    case "runner rejects bad partition" test_runner_rejects_bad_partition;
    case "runner rejects conflicting batch" test_runner_rejects_conflicting_batch;
    case "config_for_batch routes" test_config_for_batch_routes;
    prop_baselines_correct;
    prop_csa_beats_baseline_writes;
  ]
