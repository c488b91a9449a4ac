open Helpers

(* The execution log as single source of truth: packing round-trips,
   derived views agree with the schedules every producer returns, the
   digest canonicalizes producer-specific event orders, and the
   Theorem 8 quantities (Lemmas 6/7) are checkable straight off the
   log. *)

(* --- encoding ------------------------------------------------------- *)

let sample_events =
  Cst.Exec_log.
    [
      Phase_done { levels = 10 };
      Round_begin { index = 1 };
      Connect { node = 513; out_port = Cst.Side.P; in_port = Cst.Side.L };
      Disconnect { node = 513; out_port = Cst.Side.P; in_port = Cst.Side.L };
      Write_config { node = 7; count = 3 };
      Deliver { src = 0; dst = 1_000_000 };
      Round_begin { index = 1_000_000_000 };
      Run_end { rounds = 1_000_000_000 };
    ]

let test_roundtrip () =
  let log = Cst.Exec_log.create ~capacity:1 () in
  List.iter (Cst.Exec_log.append log) sample_events;
  check_int "length" (List.length sample_events) (Cst.Exec_log.length log);
  check_int "bytes" (8 * List.length sample_events)
    (Cst.Exec_log.bytes_used log);
  List.iteri
    (fun i ev ->
      check_true
        (Printf.sprintf "event %d round-trips" i)
        (Cst.Exec_log.event log i = ev))
    sample_events

let test_field_range_checked () =
  let log = Cst.Exec_log.create () in
  check_raises_invalid "node too large" (fun () ->
      Cst.Exec_log.write_config log ~node:(1 lsl 20) ~count:0);
  check_raises_invalid "negative src" (fun () ->
      Cst.Exec_log.deliver log ~src:(-1) ~dst:0)

let test_sub_and_cursors () =
  let log = Cst.Exec_log.create () in
  List.iter (Cst.Exec_log.append log) sample_events;
  let cursor = 3 in
  let tail = Cst.Exec_log.sub log ~from:cursor in
  check_int "sub length"
    (List.length sample_events - cursor)
    (Cst.Exec_log.length tail);
  check_true "sub contents"
    (Cst.Exec_log.event tail 0 = Cst.Exec_log.event log cursor);
  check_true "digest of suffix = digest of sub"
    (Cst.Exec_log.digest ~from:cursor log = Cst.Exec_log.digest tail)

(* --- derived views agree with every producer ------------------------ *)

(* Independent re-derivation of the power totals: a plain fold over the
   events, sharing no code with [Power_meter.of_log]. *)
let naive_power log =
  Cst.Exec_log.fold log ~init:(0, 0, 0) ~f:(fun (c, d, w) ev ->
      match ev with
      | Cst.Exec_log.Connect _ -> (c + 1, d, w)
      | Cst.Exec_log.Disconnect _ -> (c, d + 1, w)
      | Cst.Exec_log.Write_config { count; _ } -> (c, d, w + count)
      | _ -> (c, d, w))

let rounds_of_log log =
  List.rev
    (Cst.Exec_log.fold_rounds log ~init:[] ~f:(fun acc rv -> rv :: acc))

let agrees name (sched : Padr.Schedule.t) log =
  let c, d, w = naive_power log in
  if sched.power.total_connects <> c then
    QCheck.Test.fail_reportf "%s: connects %d <> log %d" name
      sched.power.total_connects c;
  if sched.power.total_disconnects <> d then
    QCheck.Test.fail_reportf "%s: disconnects %d <> log %d" name
      sched.power.total_disconnects d;
  if sched.power.total_writes <> w then
    QCheck.Test.fail_reportf "%s: writes %d <> log %d" name
      sched.power.total_writes w;
  let views = rounds_of_log log in
  let streamed = Array.of_list (snapshots sched) in
  if Array.length streamed <> List.length views then
    QCheck.Test.fail_reportf "%s: %d streamed snapshots <> log %d" name
      (Array.length streamed) (List.length views);
  if Array.length sched.rounds <> List.length views then
    QCheck.Test.fail_reportf "%s: %d rounds <> log %d" name
      (Array.length sched.rounds) (List.length views);
  List.iteri
    (fun i (rv : Cst.Exec_log.round_view) ->
      let r = sched.rounds.(i) in
      if r.index <> rv.index then
        QCheck.Test.fail_reportf "%s: round %d index mismatch" name i;
      if r.deliveries <> rv.deliveries then
        QCheck.Test.fail_reportf "%s: round %d deliveries mismatch" name i;
      if streamed.(i) <> (rv.index, rv.live) then
        QCheck.Test.fail_reportf "%s: round %d snapshot mismatch" name i)
    views;
  true

let prop_views_equal_schedule params =
  let set = set_of_params params in
  let topo = Padr.topology_for set in
  let ran =
    List.map
      (fun (a : Cst_baselines.Registry.algo) ->
        let log = Cst.Exec_log.create () in
        let sched = a.run ~log topo set in
        agrees a.name sched log)
      (Cst_baselines.Registry.capable ~supports:`Well_nested ())
  in
  let engine_log = Cst.Exec_log.create () in
  let engine_sched, _ = Padr.Engine.run_exn ~log:engine_log topo set in
  List.for_all Fun.id ran && agrees "engine" engine_sched engine_log

(* --- digest canonicalization ---------------------------------------- *)

let prop_digest_spec_equals_engine params =
  let set = set_of_params params in
  let topo = Padr.topology_for set in
  let spec = Cst.Exec_log.create () in
  ignore (Padr.Csa.run_exn ~log:spec topo set);
  let eng = Cst.Exec_log.create () in
  ignore (Padr.Engine.run_exn ~log:eng topo set);
  (* The engine discovers switches in DFS preorder, the spec scheduler
     in ascending node id: the canonical digest must not see the
     difference. *)
  Cst.Exec_log.digest spec = Cst.Exec_log.digest eng

let test_digest_distinguishes_runs () =
  let log_of pairs =
    let log = Cst.Exec_log.create () in
    ignore (Padr.Csa.run_exn ~log (topo 8) (set ~n:8 pairs));
    log
  in
  let a = log_of [ (0, 7); (1, 2) ] and b = log_of [ (0, 7); (2, 3) ] in
  check_true "different runs, different digests"
    (Cst.Exec_log.digest a <> Cst.Exec_log.digest b);
  check_true "digest is deterministic"
    (Cst.Exec_log.digest a = Cst.Exec_log.digest (log_of [ (0, 7); (1, 2) ]))

(* --- Theorem 8 checker (Lemmas 6/7) --------------------------------- *)

let max_alternations log leaves =
  let worst = ref 0 in
  for node = 0 to leaves - 1 do
    worst := max !worst (Cst.Exec_log.driver_alternations log ~node)
  done;
  !worst

(* On arbitrary random sets the implemented CSA can exceed the
   idealized Lemma 6/7 constant of 2 (its round order on a chain is
   driven by the per-switch index matching, not strictly
   outermost-first), but the count stays a small width-independent
   constant — the same envelope [Verify.default_power_bound] already
   documents for per-switch connects (observed max: 5 alternations over
   ~3000 runs up to 16384 PEs). *)
let prop_csa_alternations_bounded params =
  let set = set_of_params params in
  let topo = Padr.topology_for set in
  let log = Cst.Exec_log.create () in
  ignore (Padr.Csa.run_exn ~log topo set);
  let worst = max_alternations log (Cst.Topology.leaves topo) in
  if worst > Padr.Verify.default_power_bound then
    QCheck.Test.fail_reportf
      "CSA alternated a driver %d times (envelope is %d)" worst
      Padr.Verify.default_power_bound;
  true

(* The Lemma 6/7 constant itself, on width-controlled families: as the
   width grows 2 -> 256 the CSA's worst port alternates at most twice. *)
let test_csa_alternations_flat_in_width () =
  let n = 1024 in
  let topo = Cst.Topology.create ~leaves:n in
  List.iter
    (fun w ->
      let rng = Cst_util.Prng.create (100 + w) in
      let s = Cst_workloads.Gen_wn.with_width rng ~n ~width:w in
      let log = Cst.Exec_log.create () in
      ignore (Padr.Csa.run_exn ~log topo s);
      let worst = max_alternations log n in
      check_true
        (Printf.sprintf "<= 2 alternations at width %d (got %d)" w worst)
        (worst <= 2))
    [ 2; 4; 8; 16; 32; 64; 128; 256 ]

(* Adversarial family for the Roy-style comparator: a chain of [w]
   nested communications, where a private blocker stack under each
   chain member forces its greedy ID, so consecutive rounds draw their
   source from alternating halves of the source region.  The switch
   over that region re-acquires a different driver nearly every round:
   width - 1 alternations, against the CSA's constant 2.  (The set is
   right-oriented but crossing — exactly the inputs ID colouring
   accepts and the CSA's well-nested analysis excludes.) *)
let roy_adversary ~w =
  let bs =
    let rec up k = if k >= (2 * w) + 2 then k else up (2 * k) in
    up 2
  in
  let n = 2 * w * bs in
  let round_of i = if i <= w / 2 then (2 * i) - 1 else 2 * (i - (w / 2)) in
  let comms = ref [] in
  for i = 1 to w do
    let a = ((w - i) * bs) + (bs / 2) - 1 in
    comms := (a, n - 1 - w + i) :: !comms;
    for j = 1 to round_of i - 1 do
      comms := (a - j, a + j) :: !comms
    done
  done;
  (n, set ~n !comms)

let test_roy_alternations_grow_with_width () =
  let alt_at w =
    let n, s = roy_adversary ~w in
    let topo = Cst.Topology.create ~leaves:n in
    let log = Cst.Exec_log.create () in
    let sched = Cst_baselines.Roy_id.run ~log topo s in
    check_int
      (Printf.sprintf "width %d realized" w)
      w sched.width;
    max_alternations log n
  in
  List.iter
    (fun w ->
      check_int
        (Printf.sprintf "roy-id alternates width-1 times at w=%d" w)
        (w - 1) (alt_at w))
    [ 4; 8; 16 ]

(* The digest hashes every config run as a sorted set, so shuffling the
   events inside each run never changes it.  Runs of up to 700 events,
   some drawn from a handful of distinct events so that words repeat,
   exercise every size class of the digest's in-buffer sort. *)
let test_digest_ignores_run_order () =
  let rng = Cst_util.Prng.create 11 in
  let side () = [| Cst.Side.L; Cst.Side.R; Cst.Side.P |].(Cst_util.Prng.int rng 3) in
  let config pool =
    let node = 1 + Cst_util.Prng.int rng pool in
    match Cst_util.Prng.int rng 3 with
    | 0 -> Cst.Exec_log.Connect { node; out_port = side (); in_port = side () }
    | 1 -> Cst.Exec_log.Disconnect { node; out_port = side (); in_port = side () }
    | _ -> Cst.Exec_log.Write_config { node; count = 1 + Cst_util.Prng.int rng 4 }
  in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Cst_util.Prng.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  for _ = 1 to 30 do
    let rounds =
      List.init (1 + Cst_util.Prng.int rng 4) (fun _ ->
          let len = [| 0; 1; 2; 15; 17; 120; 700 |].(Cst_util.Prng.int rng 7) in
          let pool = if Cst_util.Prng.bool rng then 5 else 100_000 in
          Array.init len (fun _ -> config pool))
    in
    let build permute =
      let log = Cst.Exec_log.create () in
      Cst.Exec_log.phase_done log ~levels:17;
      List.iteri
        (fun i run ->
          Cst.Exec_log.round_begin log ~index:(i + 1);
          let run = Array.copy run in
          permute run;
          Array.iter (Cst.Exec_log.append log) run;
          Cst.Exec_log.deliver log ~src:i ~dst:(i + 1))
        rounds;
      Cst.Exec_log.run_end log ~rounds:(List.length rounds);
      Cst.Exec_log.digest log
    in
    let d = build ignore in
    check_true "shuffled runs" (build shuffle = d);
    check_true "sorted runs" (build (Array.sort compare) = d);
    check_true "reversed runs"
      (build (fun a ->
           let r = Array.copy a in
           Array.iteri (fun i x -> a.(Array.length a - 1 - i) <- x) r)
      = d)
  done

(* --- rebasing keeps each round's config words in sorted order ------- *)

(* The packed words of a log, read back from its codec encoding: a
   40-byte header, then one little-endian word per event. *)
let words log =
  let b = Cst.Exec_log.Codec.encode log in
  Array.init (Cst.Exec_log.length log) (fun i ->
      Int64.to_int
        (Bytes.get_int64_le b (Cst.Exec_log.Codec.header_bytes + (8 * i))))

let is_config = function
  | Cst.Exec_log.Connect _ | Cst.Exec_log.Disconnect _
  | Cst.Exec_log.Write_config _ ->
      true
  | _ -> false

(* Sorting each config run and then rebasing equals rebasing and then
   sorting.  [rebase] relabels event for event, so the word at position
   [i] of [log] becomes the word at position [i] of the rebased log;
   "sort, then rebase" is the rebased words taken in the order of the
   original words.  Logs from the spec and the engine, rebased to a
   random congruent block of a random tree size. *)
let prop_rebase_keeps_sorted_runs ((seed, _, _) as params) =
  let s = set_of_params params in
  Cst_comm.Comm_set.size s = 0
  ||
  let topo = Padr.topology_for s in
  let leaves = Cst.Topology.leaves topo in
  let placed = Cst.Canon.place s in
  let align = Cst.Canon.align placed.canon in
  let rng = Cst_util.Prng.create (seed + 1) in
  let dst_leaves = align lsl Cst_util.Prng.int rng 4 in
  let dst_base = align * Cst_util.Prng.int rng (dst_leaves / align) in
  let commutes run =
    let log = Cst.Exec_log.create () in
    run log;
    let before = words log
    and after =
      words
        (Cst.Exec_log.rebase log ~src_leaves:leaves ~src_base:placed.base
           ~dst_leaves ~dst_base ~align)
    in
    let ok = ref true and i = ref 0 in
    let len = Array.length before in
    while !i < len do
      let j = ref !i in
      while !j < len && is_config (Cst.Exec_log.event log !j) do
        incr j
      done;
      let run = List.init (!j - !i) (fun k -> !i + k) in
      let by_old =
        List.stable_sort (fun x y -> compare before.(x) before.(y)) run
      in
      let sort_then_rebase = List.map (fun x -> after.(x)) by_old
      and rebase_then_sort = List.sort compare (List.map (fun x -> after.(x)) run) in
      if sort_then_rebase <> rebase_then_sort then ok := false;
      i := max (!i + 1) !j
    done;
    !ok
  in
  commutes (fun log -> ignore (Padr.Csa.run_exn ~log topo s))
  && commutes (fun log -> ignore (Padr.Engine.run_exn ~log topo s))

let suite =
  [
    case "events round-trip the packing" test_roundtrip;
    case "field ranges checked" test_field_range_checked;
    case "sub and cursor digests" test_sub_and_cursors;
    prop "derived views equal schedule (all producers)" ~count:200
      prop_views_equal_schedule;
    prop "digest canonical across spec/engine" ~count:60
      prop_digest_spec_equals_engine;
    case "digest distinguishes runs" test_digest_distinguishes_runs;
    prop "CSA driver alternations O(1) on random sets" ~count:150
      prop_csa_alternations_bounded;
    case "CSA alternations <= 2 across widths (Lemma 6/7)"
      test_csa_alternations_flat_in_width;
    case "roy-id alternations grow with width"
      test_roy_alternations_grow_with_width;
    case "digest ignores the order inside config runs"
      test_digest_ignores_run_order;
    prop "rebase keeps each config run's sorted order" ~count:100
      prop_rebase_keeps_sorted_runs;
  ]
