open Helpers
open Cst_workloads

let bus_with_cuts n cuts =
  let b = Segbus.create ~n in
  List.iter (Segbus.cut b) cuts;
  b

let test_single_segment () =
  let b = Segbus.create ~n:8 in
  check_true "one segment" (Segbus.segments b = [ (0, 7) ]);
  check_true "segment_of" (Segbus.segment_of b 5 = (0, 7))

let test_cut_and_join () =
  let b = bus_with_cuts 8 [ 3 ] in
  check_true "two segments" (Segbus.segments b = [ (0, 3); (4, 7) ]);
  check_true "is_cut" (Segbus.is_cut b 3);
  Segbus.join b 3;
  check_true "rejoined" (Segbus.segments b = [ (0, 7) ])

let test_many_cuts () =
  let b = bus_with_cuts 8 [ 0; 6 ] in
  check_true "three segments"
    (Segbus.segments b = [ (0, 0); (1, 6); (7, 7) ])

let test_bad_switch_index () =
  let b = Segbus.create ~n:8 in
  check_raises_invalid "negative" (fun () -> Segbus.cut b (-1));
  check_raises_invalid "too big" (fun () -> Segbus.cut b 7)

let test_run_bus () =
  let b = bus_with_cuts 8 [ 3 ] in
  match Segbus.run_bus b [ { writer = 1; reader = 3 }; { writer = 6; reader = 4 } ] with
  | Ok deliveries -> check_true "deliveries" (deliveries = [ (1, 3); (6, 4) ])
  | Error _ -> Alcotest.fail "valid writes"

let test_cross_segment_rejected () =
  let b = bus_with_cuts 8 [ 3 ] in
  match Segbus.run_bus b [ { writer = 1; reader = 5 } ] with
  | Error (Segbus.Cross_segment _) -> ()
  | _ -> Alcotest.fail "expected Cross_segment"

let test_contention_rejected () =
  let b = Segbus.create ~n:8 in
  match Segbus.run_bus b [ { writer = 0; reader = 1 }; { writer = 2; reader = 3 } ] with
  | Error (Segbus.Bus_contention _) -> ()
  | _ -> Alcotest.fail "expected Bus_contention"

let test_self_write_rejected () =
  let b = Segbus.create ~n:8 in
  match Segbus.run_bus b [ { writer = 2; reader = 2 } ] with
  | Error (Segbus.Self_write _) -> ()
  | _ -> Alcotest.fail "expected Self_write"

let test_to_comm_set () =
  let b = bus_with_cuts 8 [ 3 ] in
  match Segbus.to_comm_set b [ { writer = 1; reader = 3 }; { writer = 6; reader = 4 } ] with
  | Ok s ->
      check_int "two comms" 2 (Cst_comm.Comm_set.size s);
      check_int "bus n preserved" 8 (Cst_comm.Comm_set.n s)
  | Error _ -> Alcotest.fail "valid writes"

let test_cst_equivalence () =
  let b = bus_with_cuts 16 [ 3; 7; 11 ] in
  let writes =
    [
      { Segbus.writer = 1; reader = 3 };
      { Segbus.writer = 6; reader = 4 };
      { Segbus.writer = 8; reader = 11 };
      { Segbus.writer = 15; reader = 12 };
    ]
  in
  match (Segbus.run_bus b writes, Segbus.run_on_cst b writes) with
  | Ok bus_del, Ok w ->
      check_true "CST reproduces the bus semantics"
        (Padr.Waves.deliveries w = bus_del);
      check_true "at most two rounds (one per orientation)"
        (w.rounds <= 2)
  | _ -> Alcotest.fail "both should succeed"

let test_cst_equivalence_random () =
  let rng = Cst_util.Prng.create 123 in
  for _ = 1 to 25 do
    let n = 32 in
    let b = Segbus.create ~n in
    (* random cuts *)
    for i = 0 to n - 2 do
      if Cst_util.Prng.chance rng 0.3 then Segbus.cut b i
    done;
    (* one random write per sufficiently large segment *)
    let writes =
      List.filter_map
        (fun (lo, hi) ->
          if hi - lo < 1 then None
          else
            let w = Cst_util.Prng.int_in rng lo hi in
            let rec pick_r () =
              let r = Cst_util.Prng.int_in rng lo hi in
              if r = w then pick_r () else r
            in
            Some { Segbus.writer = w; reader = pick_r () })
        (Segbus.segments b)
    in
    match (Segbus.run_bus b writes, Segbus.run_on_cst b writes) with
    | Ok bus_del, Ok w ->
        check_true "equivalent" (Padr.Waves.deliveries w = bus_del)
    | _ -> Alcotest.fail "random segbus step failed"
  done

let test_error_pp () =
  let msg =
    Format.asprintf "%a" Segbus.pp_error (Segbus.Bus_contention 3)
  in
  check_true "mentions PE" (String.length msg > 0)

let suite =
  [
    case "single segment" test_single_segment;
    case "cut and join" test_cut_and_join;
    case "many cuts" test_many_cuts;
    case "bad switch index" test_bad_switch_index;
    case "run bus" test_run_bus;
    case "cross-segment rejected" test_cross_segment_rejected;
    case "contention rejected" test_contention_rejected;
    case "self-write rejected" test_self_write_rejected;
    case "to_comm_set" test_to_comm_set;
    case "CST equivalence" test_cst_equivalence;
    case "CST equivalence (random)" test_cst_equivalence_random;
    case "error pretty-printing" test_error_pp;
  ]
