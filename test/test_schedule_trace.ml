open Helpers

let sched () = schedule ~n:8 [ (0, 7); (1, 2); (3, 4) ]

let test_all_deliveries_sorted () =
  let s = sched () in
  let d = Padr.Schedule.all_deliveries s in
  check_true "sorted by source" (d = List.sort compare d);
  check_true "content" (d = [ (0, 7); (1, 2); (3, 4) ])

let test_deliveries_per_round () =
  let s = sched () in
  check_true "per round counts"
    (Padr.Schedule.deliveries_per_round s = [| 1; 2 |])

let test_pp_smoke () =
  let s = sched () in
  let txt = Format.asprintf "%a" Padr.Schedule.pp s in
  check_true "mentions rounds" (String.length txt > 40)

let test_round_snapshot_nonempty () =
  let s = sched () in
  let snaps = snapshots s in
  check_true "a snapshot per round, in order"
    (List.map fst snaps
    = Array.to_list (Array.map (fun (r : Padr.Schedule.round) -> r.index) s.rounds));
  List.iter (fun (_, live) -> check_true "has configs" (live <> [])) snaps

(* Runs on one net share its log.  A schedule's range ends where its run
   did: a later run's events never reach an earlier schedule's
   snapshots, while the later run sees the earlier one's carried-over
   connections. *)
let test_shared_net_snapshots () =
  let t = topo 8 in
  let net = Cst.Net.create t in
  let switches s = List.map fst (List.concat_map snd (snapshots s)) in
  let first = Padr.Csa.run_exn ~net t (set ~n:8 [ (0, 1) ]) in
  let before = snapshots first in
  let second = Padr.Csa.run_exn ~net t (set ~n:8 [ (6, 7) ]) in
  check_true "earlier run unchanged" (snapshots first = before);
  check_true "earlier run: its own switch" (switches first = [ 4 ]);
  check_true "later run: carried-over switch too" (switches second = [ 4; 7 ]);
  check_verified first;
  check_verified second

let test_combine_power_accumulates () =
  let s = sched () in
  let doubled = Padr.Schedule.combine_power s.power s.power in
  check_int "totals add" (2 * s.power.total_connects) doubled.total_connects;
  check_int "writes add" (2 * s.power.total_writes) doubled.total_writes;
  (* the same switch busy in both parts accumulates: maxima are
     recomputed from the summed arrays, not maxed *)
  check_int "maxima recomputed" (2 * s.power.max_connects_per_switch)
    doubled.max_connects_per_switch;
  let zero = Padr.Schedule.zero_power ~num_nodes:15 in
  let same = Padr.Schedule.combine_power s.power zero in
  check_int "zero is neutral for totals" s.power.total_connects
    same.total_connects;
  check_int "zero is neutral for maxima" s.power.max_connects_per_switch
    same.max_connects_per_switch

(* A switch busy in both parts: its combined count is the sum, so the
   combined maximum exceeds either part's own maximum. *)
let test_combine_power_shared_switch () =
  (* [connects.(v)] connects at switch [v] of a 3-switch tree *)
  let part connects =
    let log = Cst.Exec_log.create () in
    Array.iteri
      (fun node k ->
        for _ = 1 to k do
          Cst.Exec_log.connect log ~node ~out_port:Cst.Side.P
            ~in_port:Cst.Side.L
        done)
      connects;
    Padr.Schedule.power_of_meter (Cst.Power_meter.of_log ~num_nodes:3 log)
  in
  let a = part [| 0; 2; 3; 0 |] and b = part [| 0; 2; 0; 1 |] in
  let c = Padr.Schedule.combine_power a b in
  check_true "arrays add"
    (Padr.Schedule.per_switch_connects c = [| 0; 4; 3; 1 |]);
  check_int "combined max" 4 c.max_connects_per_switch;
  check_int "combined events max" 4 c.max_events_per_switch;
  check_true "above either part's"
    (c.max_connects_per_switch
    > max a.max_connects_per_switch b.max_connects_per_switch)

let test_mirror_power_preserves_totals () =
  let s = sched () in
  let t = Cst.Topology.create ~leaves:8 in
  let m = Padr.Schedule.mirror_power t s.power in
  check_int "total invariant" s.power.total_connects m.total_connects;
  check_int "max invariant" s.power.max_connects_per_switch
    m.max_connects_per_switch;
  (* reflecting twice is the identity on the arrays *)
  let mm = Padr.Schedule.mirror_power t m in
  check_true "involution"
    (Padr.Schedule.per_switch_connects mm
    = Padr.Schedule.per_switch_connects s.power)

let test_trace_of_log () =
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.round_begin log ~index:1;
  Cst.Exec_log.run_end log ~rounds:1;
  let t = Cst.Trace.of_log log in
  check_int "two events" 2 (Cst.Trace.length t);
  check_true "order preserved"
    (Cst.Trace.events t
    = [ Cst.Trace.Round_start 1; Cst.Trace.Finished { rounds = 1 } ])

let test_trace_of_empty_log () =
  let t = Cst.Trace.of_log (Cst.Exec_log.create ()) in
  check_int "no events" 0 (Cst.Trace.length t)

let test_trace_pp () =
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.round_begin log ~index:1;
  Cst.Exec_log.deliver log ~src:2 ~dst:5;
  let txt = Format.asprintf "%a" Cst.Trace.pp (Cst.Trace.of_log log) in
  check_true "mentions PEs" (String.length txt > 10)

let test_trace_full_run_round_count () =
  let log = Cst.Exec_log.create () in
  let _ = Padr.Csa.run_exn ~log (topo 8) (set ~n:8 [ (0, 7); (1, 6) ]) in
  let starts =
    List.length
      (List.filter
         (function Cst.Trace.Round_start _ -> true | _ -> false)
         (Cst.Trace.events (Cst.Trace.of_log log)))
  in
  check_int "a start per round" 2 starts

let suite =
  [
    case "all_deliveries sorted" test_all_deliveries_sorted;
    case "deliveries per round" test_deliveries_per_round;
    case "pp smoke" test_pp_smoke;
    case "round snapshots" test_round_snapshot_nonempty;
    case "shared-net snapshots" test_shared_net_snapshots;
    case "combine_power accumulates" test_combine_power_accumulates;
    case "combine_power shared switch" test_combine_power_shared_switch;
    case "mirror_power preserves totals" test_mirror_power_preserves_totals;
    case "trace of_log" test_trace_of_log;
    case "trace of empty log" test_trace_of_empty_log;
    case "trace pp" test_trace_pp;
    case "trace round count" test_trace_full_run_round_count;
  ]
