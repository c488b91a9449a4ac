open Helpers

let test_well_nested_single_wave () =
  let s = set ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  let w = Padr.Waves.schedule_exn s in
  check_int "one wave" 1 (Padr.Waves.num_waves w);
  check_int "same rounds as direct CSA" 2 w.rounds;
  check_true "deliveries" (Padr.Waves.deliveries w = Cst_comm.Comm_set.matching s)

let test_butterfly_waves () =
  let s = Cst_workloads.Gen_arbitrary.butterfly ~n:32 ~stage:3 in
  let w = Padr.Waves.schedule_exn s in
  check_int "2^stage waves" 8 (Padr.Waves.num_waves w);
  check_true "deliveries" (Padr.Waves.deliveries w = Cst_comm.Comm_set.matching s)

let test_mixed_orientations () =
  let s = set ~n:8 [ (0, 2); (1, 3); (7, 5); (6, 4) ] in
  let w = Padr.Waves.schedule_exn s in
  check_int "two waves per orientation" 4 (Padr.Waves.num_waves w);
  check_true "deliveries" (Padr.Waves.deliveries w = Cst_comm.Comm_set.matching s)

let test_empty () =
  let w = Padr.Waves.schedule_exn (set ~n:8 []) in
  check_int "no waves" 0 (Padr.Waves.num_waves w);
  check_int "no rounds" 0 w.rounds;
  check_int "no power" 0 w.power.total_connects

let test_carry_over_saves () =
  (* The same layer pattern repeated: on the shared network, later waves
     reuse earlier configurations where the paths coincide. *)
  let s = Cst_workloads.Gen_arbitrary.butterfly ~n:64 ~stage:2 in
  let w = Padr.Waves.schedule_exn s in
  let independent =
    List.fold_left
      (fun acc layer ->
        acc + (Padr.schedule_exn layer).power.total_writes)
      0
      (Cst_comm.Wn_cover.layers s)
  in
  check_true "shared net never worse" (w.power.total_writes <= independent)

let test_pp () =
  let w = Padr.Waves.schedule_exn (set ~n:8 [ (0, 2); (1, 3) ]) in
  let txt = Format.asprintf "%a" Padr.Waves.pp w in
  check_true "mentions waves" (String.length txt > 20)

let prop_waves_route_anything =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"waves route arbitrary valid sets"
       QCheck.(pair (int_bound 100000) (int_range 2 7))
       (fun (seed, exp) ->
         let n = 1 lsl exp in
         let rng = Cst_util.Prng.create seed in
         let s =
           Cst_workloads.Gen_arbitrary.random_pairs rng ~n ~pairs:(n / 3)
         in
         let w = Padr.Waves.schedule_exn s in
         Padr.Waves.deliveries w = Cst_comm.Comm_set.matching s))

let prop_waves_power_bounded_per_wave =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"per-switch connects bounded by waves * constant"
       QCheck.(pair (int_bound 100000) (int_range 3 6))
       (fun (seed, exp) ->
         let n = 1 lsl exp in
         let rng = Cst_util.Prng.create seed in
         let s = Cst_workloads.Gen_arbitrary.bit_reversal_sample rng ~n in
         let w = Padr.Waves.schedule_exn s in
         w.power.max_connects_per_switch
         <= max 1 (Padr.Waves.num_waves w) * Padr.Verify.default_power_bound))

(* [run] on two persistent nets: each call's ledger is its own share
   of the nets' logs, so the per-call ledgers of a sequence of crossing
   and mixed sets combine to the right net's whole-log meter combined
   with the mirrored left net's — the accounting a superstep program or
   a traffic trace sums. *)
let prop_run_shares_add_up =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"run: per-call power adds up to the nets' logs"
       QCheck.(pair (int_bound 100000) (int_range 1 6))
       (fun (seed, exp) ->
         let leaves = 1 lsl exp in
         let rng = Cst_util.Prng.create seed in
         let topo = Cst.Topology.create ~leaves in
         let num_nodes = Cst.Topology.num_nodes topo in
         let right = Cst.Net.create topo and left = Cst.Net.create topo in
         let set () =
           let n = 2 + Cst_util.Prng.int rng (leaves - 1) in
           if Cst_util.Prng.bool rng then
             Cst_workloads.Gen_arbitrary.random_pairs rng ~n ~pairs:(n / 3)
           else
             let base =
               Cst_workloads.Gen_wn.uniform rng ~n
                 ~density:(Cst_util.Prng.float rng 1.0)
             in
             Cst_comm.Comm_set.create_exn ~n
               (List.map
                  (fun (c : Cst_comm.Comm.t) ->
                    if Cst_util.Prng.bool rng then
                      Cst_comm.Comm.make ~src:c.dst ~dst:c.src
                    else c)
                  (Array.to_list (Cst_comm.Comm_set.comms base)))
         in
         let total =
           List.fold_left
             (fun acc _ ->
               match Padr.Waves.run ~right ~left (set ()) with
               | Ok w -> Padr.Schedule.combine_power acc w.power
               | Error e -> Alcotest.failf "%a" Padr.pp_error e)
             (Padr.Schedule.zero_power ~num_nodes)
             (List.init (2 + Cst_util.Prng.int rng 5) Fun.id)
         in
         let whole net =
           Padr.Schedule.power_of_meter
             (Cst.Power_meter.of_log ~num_nodes (Cst.Net.log net))
         in
         total
         = Padr.Schedule.combine_power (whole right)
             (Padr.Schedule.mirror_power topo (whole left))))

let suite =
  [
    case "well-nested single wave" test_well_nested_single_wave;
    case "butterfly waves" test_butterfly_waves;
    case "mixed orientations" test_mixed_orientations;
    case "empty" test_empty;
    case "carry-over saves" test_carry_over_saves;
    case "pp" test_pp;
    prop_waves_route_anything;
    prop_waves_power_bounded_per_wave;
    prop_run_shares_add_up;
  ]
