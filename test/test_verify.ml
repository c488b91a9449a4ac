open Helpers

let good () = schedule ~n:8 [ (0, 7); (1, 2); (3, 4) ]

let test_accepts_good () =
  let r = Padr.verify (good ()) in
  check_true "ok" r.ok;
  check_int "no issues" 0 (List.length r.issues);
  check_int "rounds" 2 r.rounds;
  check_int "width" 2 r.width;
  check_int "deliveries" 3 r.deliveries

let tamper f =
  let s = good () in
  Padr.verify { s with rounds = f s.rounds }

let test_detects_dropped_delivery () =
  let r =
    tamper (fun rounds ->
        Array.map
          (fun (r : Padr.Schedule.round) ->
            if r.index = 2 then { r with deliveries = [ List.hd r.deliveries ] }
            else r)
          rounds)
  in
  check_true "rejected" (not r.ok)

let test_detects_wrong_destination () =
  let r =
    tamper (fun rounds ->
        Array.map
          (fun (r : Padr.Schedule.round) ->
            if r.index = 1 then { r with deliveries = [ (0, 6) ] } else r)
          rounds)
  in
  check_true "rejected" (not r.ok)

let test_detects_conflicting_round () =
  (* merge all deliveries into round 1: (0,7) and (1,2) share a link. *)
  let s = good () in
  let all =
    Array.to_list s.rounds
    |> List.concat_map (fun (r : Padr.Schedule.round) -> r.deliveries)
  in
  let rounds =
    [|
      { s.rounds.(0) with deliveries = all };
      { s.rounds.(1) with deliveries = [] };
    |]
  in
  let r = Padr.verify { s with rounds } in
  check_true "rejected" (not r.ok);
  check_true "issues reported" (r.issues <> [])

let test_detects_round_count () =
  let s = good () in
  let rounds = Array.append s.rounds s.rounds in
  let r = Padr.verify { s with rounds } in
  check_true "rejected" (not r.ok)

let test_detects_power_blowup () =
  let s = good () in
  let r =
    Padr.verify
      {
        s with
        power = { s.power with max_connects_per_switch = 1000 };
      }
  in
  check_true "rejected" (not r.ok)

let test_detects_replay_divergence () =
  (* Drop the first [Connect] of round 1 from a copy of the schedule's
     log: round 1's streamed snapshot then lacks a connection, so the
     physical replay no longer delivers.  Rounds and power are left as
     derived, so only the replay can notice. *)
  let s = good () in
  let src = Option.get s.source in
  let rec first_connect i in_round_1 =
    match Cst.Exec_log.event src.log i with
    | Cst.Exec_log.Round_begin { index } -> first_connect (i + 1) (index = 1)
    | Cst.Exec_log.Connect _ when in_round_1 -> i
    | _ -> first_connect (i + 1) in_round_1
  in
  let drop = first_connect src.from false in
  let copy = Cst.Exec_log.create () in
  for i = 0 to Cst.Exec_log.length src.log - 1 do
    if i <> drop then Cst.Exec_log.append copy (Cst.Exec_log.event src.log i)
  done;
  let r =
    Padr.verify
      { s with source = Some { src with log = copy; upto = src.upto - 1 } }
  in
  check_true "rejected" (not r.ok);
  check_true "by the replay"
    (List.mem "round 1: replaying the logged configurations diverges"
       r.issues);
  check_true "the intact log verifies" (Padr.verify s).ok

let test_custom_power_bound () =
  let s = good () in
  let r =
    Padr.Verify.schedule ~power_bound:0 (topo 8) s.set s
  in
  check_true "tight bound rejects" (not r.ok)

let test_non_optimal_allowed_for_baselines () =
  let st = set ~n:8 [ (0, 7); (1, 6) ] in
  let sched = Cst_baselines.Naive.run (topo 8) st in
  let strict = Padr.Verify.schedule (topo 8) st sched in
  let relaxed =
    Padr.Verify.schedule ~check_rounds_optimal:false (topo 8) st sched
  in
  check_true "naive is round-optimal here" strict.ok;
  check_true "relaxed accepts too" relaxed.ok

let test_report_pp () =
  let r = Padr.verify (good ()) in
  let txt = Format.asprintf "%a" Padr.Verify.pp_report r in
  check_true "mentions OK" (String.length txt > 0 && String.sub txt 0 2 = "OK")

let suite =
  [
    case "accepts good schedule" test_accepts_good;
    case "detects dropped delivery" test_detects_dropped_delivery;
    case "detects wrong destination" test_detects_wrong_destination;
    case "detects conflicting round" test_detects_conflicting_round;
    case "detects wrong round count" test_detects_round_count;
    case "detects power blowup" test_detects_power_blowup;
    case "detects replay divergence" test_detects_replay_divergence;
    case "custom power bound" test_custom_power_bound;
    case "baselines verified without optimality" test_non_optimal_allowed_for_baselines;
    case "report pretty-printing" test_report_pp;
  ]
