open Helpers

(* Empirical form of the paper's headline contrast (Theorem 8 and the
   discussion of Roy et al.): per-switch configuration cost as the width
   grows.  CSA must stay flat; ID scheduling must grow linearly. *)

let sweep algo_run widths =
  List.map
    (fun w ->
      let n = 256 in
      let t = topo n in
      let s = Cst_workloads.Gen_wn.onion ~n ~width:w in
      let sched : Padr.Schedule.t = algo_run t s in
      (float_of_int w, float_of_int sched.power.max_writes_per_switch))
    widths

let widths = [ 2; 4; 8; 16; 32; 64; 128 ]

let test_csa_flat_in_width () =
  let pts = Array.of_list (sweep (fun t s -> Padr.Csa.run_exn t s) widths) in
  let fit = Cst_util.Stats.linear_fit pts in
  check_true
    (Printf.sprintf "slope ~ 0 (got %.4f)" fit.slope)
    (Float.abs fit.slope < 0.01)

let test_roy_linear_in_width () =
  let pts = Array.of_list (sweep Cst_baselines.Roy_id.run widths) in
  let fit = Cst_util.Stats.linear_fit pts in
  check_true
    (Printf.sprintf "slope ~ 1 (got %.4f)" fit.slope)
    (fit.slope > 0.9 && fit.slope < 1.1);
  check_true "good fit" (fit.r2 > 0.99)

let test_csa_constant_across_n () =
  (* Theorem 8's constant must not secretly grow with the tree size. *)
  let maxima =
    List.map
      (fun n ->
        let rng = Cst_util.Prng.create 2024 in
        let worst = ref 0 in
        for _ = 1 to 10 do
          let s = Cst_workloads.Gen_wn.uniform rng ~n ~density:1.0 in
          let sched = Padr.schedule_exn s in
          worst := max !worst sched.power.max_connects_per_switch
        done;
        !worst)
      [ 32; 128; 512; 2048 ]
  in
  List.iter
    (fun m ->
      check_true
        (Printf.sprintf "within bound (%d)" m)
        (m <= Padr.Verify.default_power_bound))
    maxima

let test_meter_of_log () =
  (* The meter is a pure fold of the log's charge events. *)
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.disconnect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.R;
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.R ~in_port:Cst.Side.P;
  Cst.Exec_log.write_config log ~node:3 ~count:5;
  let m = Cst.Power_meter.of_log ~num_nodes:4 log in
  check_int "connects" 3 (Cst.Power_meter.connects m ~node:2);
  check_int "disconnects" 1 (Cst.Power_meter.disconnects m ~node:2);
  check_int "writes" 5 (Cst.Power_meter.writes m ~node:3);
  check_int "total" 3 (Cst.Power_meter.total_connects m);
  check_int "max connects" 3 (Cst.Power_meter.max_connects_per_switch m);
  check_int "max writes" 5 (Cst.Power_meter.max_writes_per_switch m);
  check_int "max events" 4 (Cst.Power_meter.max_events_per_switch m)

(* The power record against a dense reference meter kept here: per-switch
   counts from a plain pass over the decoded events into tree-sized
   arrays, totals and maxima from full scans of those counts — the
   definition the sparse one-pass ledger must keep. *)
type dense = { c : int array; d : int array; w : int array }

let dense_meter ~num_nodes log =
  let c = Array.make (num_nodes + 1) 0
  and d = Array.make (num_nodes + 1) 0
  and w = Array.make (num_nodes + 1) 0 in
  Cst.Exec_log.iter log (function
    | Cst.Exec_log.Connect { node; _ } -> c.(node) <- c.(node) + 1
    | Cst.Exec_log.Disconnect { node; _ } -> d.(node) <- d.(node) + 1
    | Cst.Exec_log.Write_config { node; count } ->
        w.(node) <- w.(node) + count
    | _ -> ());
  { c; d; w }

let dense_add a b =
  let add x y = Array.map2 ( + ) x y in
  { c = add a.c b.c; d = add a.d b.d; w = add a.w b.w }

(* [mirror_power]'s old dense definition: entry [v] reads the mirrored
   switch's count. *)
let dense_mirror topo r =
  let remap a =
    Array.mapi
      (fun v x ->
        if v >= 1 && v <= Cst.Topology.num_nodes topo then
          a.(Cst.Topology.mirror_node topo v)
        else x)
      a
  in
  { c = remap r.c; d = remap r.d; w = remap r.w }

let matches_dense (p : Padr.Schedule.power) r =
  let sum = Array.fold_left ( + ) 0 and top = Array.fold_left max 0 in
  Padr.Schedule.per_switch_connects p = r.c
  && Padr.Schedule.per_switch_disconnects p = r.d
  && Padr.Schedule.per_switch_writes p = r.w
  && p.total_connects = sum r.c
  && p.total_disconnects = sum r.d
  && p.total_writes = sum r.w
  && p.max_connects_per_switch = top r.c
  && p.max_writes_per_switch = top r.w
  && p.max_events_per_switch = top (Array.map2 ( + ) r.c r.d)
  && Cst.Power_meter.touched p.ledger
     = Array.fold_left ( + ) 0
         (Array.init (Array.length r.c) (fun v ->
              if r.c.(v) + r.d.(v) + r.w.(v) > 0 then 1 else 0))

(* The set with roughly half its members reversed: a mixed set the wave
   scheduler splits into a right and a mirrored left part. *)
let mixed_of params =
  let s = set_of_params params in
  let (seed, _, _) = params in
  let rng = Cst_util.Prng.create (seed + 1) in
  Cst_comm.Comm_set.create_exn ~n:(Cst_comm.Comm_set.n s)
    (List.map
       (fun (c : Cst_comm.Comm.t) ->
         if Cst_util.Prng.bool rng then
           Cst_comm.Comm.make ~src:c.dst ~dst:c.src
         else c)
       (Array.to_list (Cst_comm.Comm_set.comms s)))

(* Every producer: the spec and every registry baseline (per-round ones
   included), the message-passing engine, the segment-parallel engine,
   and waves — whose record combines the right net's ledger with the
   mirrored left net's. *)
let prop_power_record_matches_events params =
  let s = set_of_params params in
  let t = Padr.topology_for s in
  let num_nodes = Cst.Topology.num_nodes t in
  let run_on f =
    let log = Cst.Exec_log.create () in
    let (sched : Padr.Schedule.t) = f log in
    matches_dense sched.power (dense_meter ~num_nodes log)
  in
  let waves () =
    let right = Cst.Net.create t and left = Cst.Net.create t in
    match Padr.Waves.run ~right ~left (mixed_of params) with
    | Error e -> Alcotest.failf "%a" Padr.pp_error e
    | Ok w ->
        let net_meter net = dense_meter ~num_nodes (Cst.Net.log net) in
        matches_dense w.power
          (dense_add (net_meter right) (dense_mirror t (net_meter left)))
  in
  run_on (fun log -> fst (Padr.Engine.run_exn ~log t s))
  && run_on (fun log ->
         fst (Result.get_ok (Padr.Par_engine.run ~log t s)))
  && List.for_all
       (fun (a : Cst_baselines.Registry.algo) ->
         run_on (fun log -> a.run ~log t s))
       Cst_baselines.Registry.all
  && waves ()

(* [combine_power] is dense addition and [mirror_power] dense
   remapping, on ledgers of two different runs. *)
let prop_combine_mirror_dense params =
  let s = set_of_params params in
  let t = Padr.topology_for s in
  let num_nodes = Cst.Topology.num_nodes t in
  let run f =
    let log = Cst.Exec_log.create () in
    let (sched : Padr.Schedule.t) = f log in
    (sched.power, dense_meter ~num_nodes log)
  in
  let pa, da = run (fun log -> fst (Padr.Engine.run_exn ~log t s)) in
  let pb, db = run (fun log -> Cst_baselines.Roy_id.run ~log t s) in
  matches_dense (Padr.Schedule.combine_power pa pb) (dense_add da db)
  && matches_dense (Padr.Schedule.mirror_power t pb) (dense_mirror t db)
  && matches_dense
       (Padr.Schedule.combine_power pa (Padr.Schedule.zero_power ~num_nodes))
       da

let test_meter_disconnect_last () =
  (* The busiest switch's last events are disconnects: the per-switch
     event maximum must count them. *)
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.R ~in_port:Cst.Side.P;
  Cst.Exec_log.disconnect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.R;
  Cst.Exec_log.disconnect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.R;
  let m = Cst.Power_meter.of_log ~num_nodes:3 log in
  check_int "max events" 4 (Cst.Power_meter.max_events_per_switch m);
  check_int "max connects" 2 (Cst.Power_meter.max_connects_per_switch m);
  check_int "total disconnects" 2 (Cst.Power_meter.total_disconnects m)

let test_meter_cursors () =
  (* Cursors replace the old copy/diff_since machinery: a run records
     [length log] before it starts and derives its share with [~from];
     [~upto] recovers the frozen prefix. *)
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.R ~in_port:Cst.Side.P;
  let cursor = Cst.Exec_log.length log in
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.L ~in_port:Cst.Side.P;
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.R;
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.R ~in_port:Cst.Side.L;
  Cst.Exec_log.disconnect log ~node:1 ~out_port:Cst.Side.R ~in_port:Cst.Side.L;
  Cst.Exec_log.write_config log ~node:2 ~count:4;
  let d = Cst.Power_meter.of_log ~from:cursor ~num_nodes:3 log in
  check_int "delta connects" 3 (Cst.Power_meter.connects d ~node:1);
  check_int "delta disconnects" 1 (Cst.Power_meter.disconnects d ~node:1);
  check_int "delta writes" 4 (Cst.Power_meter.writes d ~node:2);
  let baseline = Cst.Power_meter.of_log ~upto:cursor ~num_nodes:3 log in
  check_int "prefix frozen" 2 (Cst.Power_meter.connects baseline ~node:1)

let test_shared_net_rerun_is_free () =
  (* Running the same width-1 set twice on one warm network: the second
     run finds every configuration already in place — zero power (pure
     PADR).  Width 1 so that the single round's configuration is exactly
     what the warm network still holds. *)
  let t = topo 16 in
  let s = set ~n:16 [ (0, 7); (8, 11); (13, 15) ] in
  let net = Cst.Net.create t in
  let first = Padr.Csa.run_exn ~net t s in
  let second = Padr.Csa.run_exn ~net t s in
  check_true "first run pays" (first.power.total_connects > 0);
  check_int "second run free" 0 second.power.total_connects;
  check_int "second run no writes" 0 second.power.total_writes;
  check_true "second run still delivers"
    (Padr.Schedule.all_deliveries second = Cst_comm.Comm_set.matching s)

let test_shared_net_topology_mismatch () =
  let net = Cst.Net.create (topo 8) in
  check_raises_invalid "mismatch" (fun () ->
      Padr.Csa.run_exn ~net (topo 16) (set ~n:16 [ (0, 1) ]))

let test_disconnect_tracking () =
  (* A full onion forces the root's l_i->r_o to persist across every
     round: zero disconnects at the root. *)
  let s = Padr.schedule_exn (Cst_workloads.Patterns.full_onion_exn ~n:32) in
  check_true "few disconnects"
    (s.power.total_disconnects <= s.power.total_connects)

let test_power_floor_met_on_single_comm () =
  let t = topo 16 in
  let st = set ~n:16 [ (0, 15) ] in
  let sched = Padr.Csa.run_exn t st in
  (* A single communication: power = path length exactly. *)
  check_int "exact floor" (Cst_baselines.Bounds.min_total_connects t st)
    sched.power.total_connects

(* Counted certificate: deriving a small job on a big tree allocates
   nothing tree-sized.  A 2-communication set on a 65,536-leaf tree
   (131,071 switches): once the domain has metered and measured a tree
   of that size, [Schedule.of_log] plus the digest allocate a few
   hundred words — rounds, the ledger of the touched switches, the
   digest string — where dense per-switch arrays would cost 131,072
   words each. *)
let test_small_job_big_tree_allocation () =
  let leaves = 65536 in
  let t = topo leaves in
  let s = set ~n:leaves [ (0, 1); (40000, 40003) ] in
  let log = Cst.Exec_log.create () in
  ignore (Padr.Csa.run_exn ~log t s);
  let derive () =
    let sched = Padr.Schedule.of_log ~set:s ~topo:t ~cycles:0 log in
    (sched, Cst.Exec_log.digest log)
  in
  ignore (derive ());
  (* Words allocated so far on this domain.  Not [Gc.counters]: on
     OCaml 5.1 its minor count misses most minor allocations.
     [major_words] there counts direct major allocations, which is
     where tree-sized arrays go; a runtime that also counted promotions
     in it would only make the bound stricter. *)
  let words () = Gc.minor_words () +. (Gc.quick_stat ()).major_words in
  let before = words () in
  let sched, _ = derive () in
  let used = words () -. before in
  check_int "width" 1 sched.width;
  check_int "touched switches" (Cst.Power_meter.touched sched.power.ledger)
    sched.power.total_connects;
  check_true
    (Printf.sprintf "%.0f words allocated, at most 4096" used)
    (used <= 4096.)

(* A config event outside the tree raises, and leaves the domain's
   scratch as a fresh domain would have it: the next ledger equals one
   computed on a new domain. *)
let test_meter_rejects_outside_nodes () =
  let log_with node =
    let log = Cst.Exec_log.create () in
    Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
    Cst.Exec_log.write_config log ~node:3 ~count:2;
    Cst.Exec_log.connect log ~node ~out_port:Cst.Side.R ~in_port:Cst.Side.P;
    log
  in
  let meter log = Cst.Power_meter.of_log ~num_nodes:7 log in
  check_raises_invalid "node 0" (fun () -> meter (log_with 0));
  check_raises_invalid "node past the tree" (fun () -> meter (log_with 8));
  let good = log_with 5 in
  let here = meter good in
  let fresh = Domain.join (Domain.spawn (fun () -> meter good)) in
  check_true "next call equals a fresh domain's" (here = fresh);
  check_int "connects at 2" 1 (Cst.Power_meter.connects here ~node:2);
  check_int "writes at 3" 2 (Cst.Power_meter.writes here ~node:3);
  check_int "connects at 5" 1 (Cst.Power_meter.connects here ~node:5);
  check_int "three switches" 3 (Cst.Power_meter.touched here)

let suite =
  [
    case "CSA flat in width" test_csa_flat_in_width;
    case "Roy linear in width" test_roy_linear_in_width;
    case "CSA constant across n" test_csa_constant_across_n;
    case "meter of_log" test_meter_of_log;
    case "meter cursors" test_meter_cursors;
    case "meter counts trailing disconnects" test_meter_disconnect_last;
    prop "power record = per-switch recount of the events" ~count:60
      prop_power_record_matches_events;
    prop "combine/mirror = dense add and remap" ~count:60
      prop_combine_mirror_dense;
    case "shared net rerun is free" test_shared_net_rerun_is_free;
    case "shared net topology mismatch" test_shared_net_topology_mismatch;
    case "disconnect tracking" test_disconnect_tracking;
    case "single-comm power floor" test_power_floor_met_on_single_comm;
    case "small job on a big tree allocates nothing tree-sized"
      test_small_job_big_tree_allocation;
    case "meter rejects nodes outside the tree"
      test_meter_rejects_outside_nodes;
  ]
