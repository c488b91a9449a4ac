open Helpers

let sample = set ~n:16 [ (0, 15); (1, 6); (2, 3); (4, 5); (8, 13) ]

let test_matches_spec () =
  let t = topo 16 in
  let spec = Padr.Csa.run_exn t sample in
  let eng, _ = Padr.Engine.run_exn t sample in
  check_int "rounds" (Padr.Schedule.num_rounds spec) (Padr.Schedule.num_rounds eng);
  check_true "deliveries"
    (Padr.Schedule.all_deliveries spec = Padr.Schedule.all_deliveries eng);
  Array.iteri
    (fun i (r : Padr.Schedule.round) ->
      check_true "per-round deliveries"
        (List.sort compare r.deliveries
        = List.sort compare eng.rounds.(i).deliveries))
    spec.rounds

let test_stats_constants () =
  let t = topo 16 in
  let _, stats = Padr.Engine.run_exn t sample in
  check_int "state words" 5 stats.state_words_per_switch;
  check_true "message words constant" (stats.max_message_words <= 4);
  check_true "positive cycles" (stats.cycles > 0)

let test_message_count () =
  let t = topo 8 in
  let s = set ~n:8 [ (0, 7) ] in
  let _, stats = Padr.Engine.run_exn t s in
  (* Phase 1: 8 leaf messages + 6 internal (root doesn't send).
     One round: 7 switches send 2 messages each. *)
  check_int "messages" (8 + 6 + 14) stats.control_messages

let test_cycle_count () =
  let t = topo 8 in
  let s = set ~n:8 [ (0, 7) ] in
  let sched, stats = Padr.Engine.run_exn t s in
  (* Phase 1: 1 leaf cycle + 3 levels.  Round: 4 level sweeps + 1 data. *)
  check_int "cycles" (1 + 3 + 5) stats.cycles;
  check_int "schedule agrees" stats.cycles sched.cycles

let test_empty () =
  let t = topo 8 in
  let sched, _ = Padr.Engine.run_exn t (set ~n:8 []) in
  check_int "no rounds" 0 (Padr.Schedule.num_rounds sched)

let test_errors () =
  let t = topo 8 in
  (match Padr.Engine.run t (set ~n:16 [ (0, 12) ]) with
  | Error (Padr.Csa.Too_large _) -> ()
  | _ -> Alcotest.fail "expected Too_large");
  match Padr.Engine.run t (set ~n:8 [ (0, 2); (1, 3) ]) with
  | Error (Padr.Csa.Not_well_nested _) -> ()
  | _ -> Alcotest.fail "expected Not_well_nested"

let test_power_equal_to_spec () =
  let t = topo 16 in
  let spec = Padr.Csa.run_exn t sample in
  let eng, _ = Padr.Engine.run_exn t sample in
  check_int "connects" spec.power.total_connects eng.power.total_connects;
  check_int "writes" spec.power.total_writes eng.power.total_writes;
  check_int "disconnects" spec.power.total_disconnects
    eng.power.total_disconnects

(* --- per-domain workspace reuse ---------------------------------------- *)

let outcome_string = function
  | Ok ((sched : Padr.Schedule.t), (st : Padr.Engine.stats), log) ->
      Printf.sprintf
        "%s rounds=%d cycles=%d msgs=%d words=%d state=%d c=%d w=%d"
        (Cst.Exec_log.digest log) (Padr.Schedule.num_rounds sched) st.cycles
        st.control_messages st.max_message_words st.state_words_per_switch
        sched.power.total_connects sched.power.total_writes
  | Error e -> Format.asprintf "error: %a" Padr.Csa.pp_error e

let engine_job leaves set () =
  let log = Cst.Exec_log.create () in
  match Padr.Engine.run ~log (topo leaves) set with
  | r -> outcome_string (Result.map (fun (s, st) -> (s, st, log)) r)
  | exception Invalid_argument msg -> "raised: " ^ msg

let par_job leaves set () =
  let log = Cst.Exec_log.create () in
  outcome_string
    (Result.map
       (fun (s, st) -> (s, st, log))
       (Padr.Par_engine.run ~domains:2 ~log (topo leaves) set))

let gen name ~seed ~n =
  match Cst_workloads.Suite.find name with
  | Some g -> g.make (Cst_util.Prng.create seed) ~n
  | None -> assert false

(* Jobs interleaved on one domain — tree sizes alternate, rejected and
   raising sets sit between them — must each equal the same job run
   first on a freshly spawned domain, whose workspace slot is empty.
   The raising set (an endpoint past [n]) fails validation, before the
   run takes the workspace: no valid set raises later, and a run that
   did would not put its workspace back. *)
let test_workspace_reuse () =
  let past_n =
    Cst_comm.Comm_set.unsafe_of_sorted ~n:64
      [| Cst_comm.Comm.make ~src:1 ~dst:70 |]
  in
  let jobs =
    [
      engine_job 64 (gen "uniform" ~seed:1 ~n:64);
      engine_job 1024 (gen "onion" ~seed:0 ~n:1024);
      engine_job 64 (gen "dense" ~seed:2 ~n:128);
      engine_job 64 (gen "dense" ~seed:3 ~n:64);
      engine_job 64 (set ~n:64 [ (0, 2); (1, 3) ]);
      engine_job 64 past_n;
      engine_job 64 (gen "uniform" ~seed:7 ~n:64);
      engine_job 1024 (gen "uniform" ~seed:4 ~n:1024);
      engine_job 64 (gen "uniform" ~seed:1 ~n:64);
      par_job 1024 (gen "blocks" ~seed:5 ~n:1024);
      engine_job 64 (gen "onion" ~seed:0 ~n:64);
      engine_job 1024 (gen "dense" ~seed:6 ~n:1024);
    ]
  in
  let here = List.map (fun job -> job ()) jobs in
  let fresh = List.map (fun job -> Domain.join (Domain.spawn job)) jobs in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "job %d" i) b a)
    (List.combine here fresh);
  check_true "a rejection is among the jobs"
    (List.exists (String.starts_with ~prefix:"error:") here);
  check_true "a raising job is among the jobs"
    (List.exists (String.starts_with ~prefix:"raised:") here)

let suite =
  [
    case "matches functional spec" test_matches_spec;
    case "stats constants" test_stats_constants;
    case "message count" test_message_count;
    case "cycle count" test_cycle_count;
    case "empty set" test_empty;
    case "errors" test_errors;
    case "power equals spec" test_power_equal_to_spec;
    case "workspace reuse across jobs" test_workspace_reuse;
  ]
