open Helpers

(* The heavy end-to-end properties behind the paper's theorems, on random
   well-nested sets of 4..512 PEs. *)

let run params =
  let s = set_of_params params in
  (s, Padr.schedule_exn s)

let prop_theorem4_delivery =
  prop ~count:150 "Theorem 4: deliveries equal the matching" (fun params ->
      let s, sched = run params in
      Padr.Schedule.all_deliveries sched = Cst_comm.Comm_set.matching s)

let prop_theorem5_rounds =
  prop ~count:150 "Theorem 5: rounds = width exactly" (fun params ->
      let s, sched = run params in
      Padr.Schedule.num_rounds sched = Cst_comm.Width.width ~leaves:sched.leaves s)

let prop_rounds_compatible =
  prop ~count:150 "every round is a compatible set" (fun params ->
      let _, sched = run params in
      let t = Cst.Topology.create ~leaves:sched.leaves in
      Array.for_all
        (fun (r : Padr.Schedule.round) ->
          Cst.Compat.is_compatible t
            (List.map (fun (s, d) -> Cst_comm.Comm.make ~src:s ~dst:d) r.deliveries))
        sched.rounds)

let prop_theorem8_constant_power =
  prop ~count:150 "Theorem 8: per-switch connects bounded by a constant"
    (fun params ->
      let _, sched = run params in
      sched.power.max_connects_per_switch <= Padr.Verify.default_power_bound
      && sched.power.max_writes_per_switch <= Padr.Verify.default_power_bound)

let prop_each_comm_once =
  prop ~count:100 "each communication is scheduled exactly once"
    (fun params ->
      let s, sched = run params in
      let all =
        Array.to_list sched.rounds
        |> List.concat_map (fun (r : Padr.Schedule.round) -> r.deliveries)
      in
      List.length all = Cst_comm.Comm_set.size s
      && List.sort_uniq compare all = Cst_comm.Comm_set.matching s)

let prop_full_verifier =
  prop ~count:100 "full verifier accepts" (fun params ->
      let _, sched = run params in
      (Padr.verify sched).ok)

let prop_nonempty_rounds =
  prop ~count:100 "no empty rounds" (fun params ->
      let _, sched = run params in
      Array.for_all
        (fun (r : Padr.Schedule.round) -> r.deliveries <> [])
        sched.rounds)

let prop_engine_equivalence =
  prop ~count:75 "message-passing engine reproduces the schedule"
    (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      let spec = Padr.Csa.run_exn t s in
      let eng, stats = Padr.Engine.run_exn t s in
      Padr.Schedule.num_rounds spec = Padr.Schedule.num_rounds eng
      && Padr.Schedule.all_deliveries spec = Padr.Schedule.all_deliveries eng
      && spec.power.total_connects = eng.power.total_connects
      && spec.power.max_connects_per_switch = eng.power.max_connects_per_switch
      && stats.max_message_words <= 4
      && stats.state_words_per_switch = 5)

let prop_eager_ablation =
  prop ~count:75 "eager clearing keeps rounds, costs at least as much"
    (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      let lz = Padr.Csa.run_exn t s in
      let eg = Padr.Csa.run_exn ~eager_clear:true t s in
      Padr.Schedule.num_rounds lz = Padr.Schedule.num_rounds eg
      && Padr.Schedule.all_deliveries lz = Padr.Schedule.all_deliveries eg
      && eg.power.total_connects + eg.power.total_disconnects
         >= lz.power.total_connects + lz.power.total_disconnects)

(* Mixed-orientation scheduling: flip a pseudo-random subset of a
   well-nested set; both parts stay well-nested. *)
let prop_mixed_round_trip =
  prop ~count:75 "mixed sets decompose, schedule and recombine"
    (fun params ->
      let s = set_of_params params in
      let n = Cst_comm.Comm_set.n s in
      let rng = Cst_util.Prng.create 911 in
      let flipped =
        Cst_comm.Comm_set.create_exn ~n
          (Array.to_list (Cst_comm.Comm_set.comms s)
          |> List.map (fun (c : Cst_comm.Comm.t) ->
                 if Cst_util.Prng.bool rng then
                   Cst_comm.Comm.make ~src:c.dst ~dst:c.src
                 else c))
      in
      match Padr.Waves.schedule flipped with
      | Error _ -> false
      | Ok w ->
          Padr.Waves.deliveries w
          = List.sort compare
              (Array.to_list (Cst_comm.Comm_set.comms flipped)
              |> List.map (fun (c : Cst_comm.Comm.t) -> (c.src, c.dst))))

let prop_cycles =
  prop ~count:75 "cycle count follows levels + rounds*(levels+1)"
    (fun params ->
      let _, sched = run params in
      let levels = Cst_util.Bits.ilog2 sched.leaves in
      sched.cycles = levels + (Padr.Schedule.num_rounds sched * (levels + 1)))

let suite =
  [
    prop_theorem4_delivery;
    prop_theorem5_rounds;
    prop_rounds_compatible;
    prop_theorem8_constant_power;
    prop_each_comm_once;
    prop_full_verifier;
    prop_nonempty_rounds;
    prop_engine_equivalence;
    prop_eager_ablation;
    prop_mixed_round_trip;
    prop_cycles;
  ]
