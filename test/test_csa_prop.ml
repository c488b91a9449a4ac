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

(* The pruned spec against the unpruned reference ([Helpers.Reference]),
   byte for byte on the encoded log: well-nested sets of 2..1,024 PEs,
   lazy and eager runs, a fresh net or nets that carry an earlier set's
   configurations (as [Waves] runs its layers), and a domain whose
   workspace was left by a run on another set, stopped after one round,
   or by a run on another tree size. *)
let prop_spec_matches_reference =
  let gen =
    QCheck.Gen.(
      pair
        (triple (int_bound 1_000_000) (int_range 1 10) bool)
        (pair bool (int_bound 2)))
  in
  let print ((seed, n_exp, eager), (shared, left)) =
    Printf.sprintf "seed=%d n=%d eager=%b shared=%b left=%d" seed
      (1 lsl n_exp) eager shared left
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"spec log equals the unpruned reference's, byte for byte"
       (QCheck.make ~print gen)
       (fun ((seed, n_exp, eager_clear), (shared, left)) ->
         let rng = Cst_util.Prng.create seed in
         let draw n =
           Cst_workloads.Gen_wn.uniform rng ~n
             ~density:(Cst_util.Prng.float rng 1.0)
         in
         let n = 1 lsl n_exp in
         let t = topo n in
         let set = draw n and earlier = draw n in
         (match left with
         | 1 ->
             Padr.Round.with_workspace t (fun ws ->
                 ignore (Padr.Round.prepare ws t earlier);
                 ignore (Padr.Round.sweep t ws))
         | 2 ->
             let m = if n_exp = 10 then n / 2 else 2 * n in
             ignore (Padr.Csa.run_exn (topo m) (draw m))
         | _ -> ());
         let spec_net = Cst.Net.create t and ref_net = Cst.Net.create t in
         if shared then begin
           ignore (Padr.Csa.run_exn ~net:spec_net t earlier);
           ignore (Reference.run ref_net earlier)
         end;
         ignore (Padr.Csa.run_exn ~eager_clear ~net:spec_net t set);
         ignore (Reference.run ~eager_clear ref_net set);
         Bytes.equal
           (Cst.Exec_log.Codec.encode (Cst.Net.log spec_net))
           (Cst.Exec_log.Codec.encode (Cst.Net.log ref_net))))

let suite =
  [
    prop_spec_matches_reference;
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
