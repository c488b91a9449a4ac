open Helpers

(* Segment-parallel engine (Cst_comm.Decompose.blocks +
   Padr.Par_engine + Cst.Exec_log.merge): block decomposition must
   partition the set into disjoint aligned intervals, and the merged
   per-block run must be byte-identical to the sequential engine —
   same structural digest, schedule, power and hardware stats — for
   every domain count, with Theorem 8's alternation bound intact. *)

module D = Cst_comm.Decompose

let blocks_of pairs ~n = D.blocks (set ~n pairs)

let intervals bs = List.map (fun (b : D.block) -> (b.base, b.align)) bs

(* --- Decompose.blocks unit cases ------------------------------------- *)

let test_blocks_empty () =
  check_int "no blocks" 0 (List.length (D.blocks (Cst_comm.Comm_set.empty ~n:8)))

let test_blocks_disjoint_pairs () =
  let bs = blocks_of ~n:8 [ (0, 1); (2, 3); (6, 7) ] in
  Alcotest.(check (list (pair int int)))
    "three aligned pair blocks"
    [ (0, 2); (2, 2); (6, 2) ]
    (intervals bs);
  List.iter
    (fun (b : D.block) -> check_int "one comm" 1 (Cst_comm.Comm_set.size b.set))
    bs

let test_blocks_alignment_merges () =
  (* (2,5) straddles the midline: its LCA interval is [0,8), which
     contains (0,1)'s [0,2) — one block despite disjoint comm spans. *)
  let bs = blocks_of ~n:8 [ (0, 1); (2, 5) ] in
  Alcotest.(check (list (pair int int))) "merged" [ (0, 8) ] (intervals bs)

let test_blocks_cascade_merge () =
  (* (4,9)'s interval [0,16) swallows both previously closed groups. *)
  let bs = blocks_of ~n:16 [ (0, 1); (2, 3); (4, 9) ] in
  Alcotest.(check (list (pair int int))) "swallowed" [ (0, 16) ] (intervals bs);
  check_int "all members" 3 (Cst_comm.Comm_set.size (List.hd bs).set)

let test_blocks_root_in_gap () =
  (* (6,7) is a new top-level root but lands inside the merged [0,8)
     interval of (0,5); (1,2) nests under (0,5). *)
  let bs = blocks_of ~n:8 [ (0, 5); (1, 2); (6, 7) ] in
  Alcotest.(check (list (pair int int))) "one block" [ (0, 8) ] (intervals bs);
  check_int "all members" 3 (Cst_comm.Comm_set.size (List.hd bs).set)

let test_blocks_localize () =
  let bs = blocks_of ~n:16 [ (4, 7); (5, 6); (8, 9) ] in
  Alcotest.(check (list (pair int int)))
    "two blocks"
    [ (4, 4); (8, 2) ]
    (intervals bs);
  let local = D.localize (List.hd bs) in
  check_int "local n" 4 (Cst_comm.Comm_set.n local);
  check_true "local members"
    (Cst_comm.Comm_set.equal local (set ~n:4 [ (0, 3); (1, 2) ]))

let test_blocks_rejects_bad_input () =
  check_raises_invalid "left-oriented" (fun () ->
      D.blocks (set ~n:8 [ (3, 1) ]));
  check_raises_invalid "crossing" (fun () ->
      D.blocks (set ~n:8 [ (0, 2); (1, 3) ]))

(* --- block slices cost O(block), not O(n) ----------------------------- *)

(* 32 width-4 onions side by side over 16384 PEs: one block each. *)
let tiled_onions () =
  Cst_workloads.Gen_wn.tile ~copies:32
    (Cst_workloads.Gen_wn.onion ~n:512 ~width:4)

(* Words [f] allocates on this domain; arrays this large skip the minor
   heap, so both heaps count. *)
let words_allocated f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let test_blocks_allocate_per_block () =
  let s = tiled_onions () in
  let bs, words = words_allocated (fun () -> D.blocks ~check:false s) in
  check_int "32 blocks" 32 (List.length bs);
  check_true
    (Printf.sprintf "%.0f words for 32 slices of a 16384-PE set" words)
    (words < 16384.)

(* A slice's role table, built on first read, is the one the validating
   constructor builds — also when two domains make that first read at
   once. *)
let test_block_roles_on_first_read () =
  let s = tiled_onions () in
  let expected (b : D.block) =
    Cst_comm.Comm_set.roles
      (Cst_comm.Comm_set.create_exn ~n:(Cst_comm.Comm_set.n b.set)
         (Array.to_list (Cst_comm.Comm_set.comms b.set)))
  in
  List.iter
    (fun (b : D.block) ->
      check_true "roles = create_exn's roles"
        (Cst_comm.Comm_set.roles b.set = expected b))
    (D.blocks s);
  List.iteri
    (fun i (b : D.block) ->
      if i < 4 then begin
        let arrived = Atomic.make 0 in
        let read () =
          Atomic.incr arrived;
          while Atomic.get arrived < 2 do
            Domain.cpu_relax ()
          done;
          Cst_comm.Comm_set.roles b.set
        in
        let other = Domain.spawn read in
        let mine = read () in
        let theirs = Domain.join other in
        check_true "racing first reads agree with create_exn"
          (mine = expected b && theirs = expected b
          && Cst_comm.Comm_set.roles b.set = expected b)
      end)
    (D.blocks s)

(* --- Decompose.blocks properties ------------------------------------- *)

let blocks_partition params =
  let s = set_of_params params in
  let bs = D.blocks s in
  (* Disjoint aligned intervals in ascending order... *)
  let ok_geometry =
    List.for_all
      (fun (b : D.block) ->
        b.align > 0
        && b.align land (b.align - 1) = 0
        && b.base mod b.align = 0)
      bs
    &&
    let rec disjoint = function
      | (a : D.block) :: (b : D.block) :: rest ->
          a.base + a.align <= b.base && disjoint (b :: rest)
      | _ -> true
    in
    disjoint bs
  in
  (* ... every member inside its interval ... *)
  let ok_confined =
    List.for_all
      (fun (b : D.block) ->
        Array.for_all
          (fun (c : Cst_comm.Comm.t) ->
            b.base <= c.src && c.dst < b.base + b.align)
          (Cst_comm.Comm_set.comms b.set))
      bs
  in
  (* ... and the concatenation is exactly the input. *)
  let concat =
    List.concat_map
      (fun (b : D.block) ->
        Array.to_list (Cst_comm.Comm_set.comms b.set))
      bs
  in
  let original = Array.to_list (Cst_comm.Comm_set.comms s) in
  ok_geometry && ok_confined && List.equal Cst_comm.Comm.equal concat original

(* --- merged run == sequential run ------------------------------------ *)

let stats_eq (a : Padr.Engine.stats) (b : Padr.Engine.stats) =
  a.cycles = b.cycles
  && a.control_messages = b.control_messages
  && a.max_message_words = b.max_message_words
  && a.state_words_per_switch = b.state_words_per_switch

let par_equals_sequential params =
  let s = set_of_params params in
  let topo = Padr.topology_for s in
  let seq_log = Cst.Exec_log.create () in
  let seq_sched, seq_stats = Padr.Engine.run_exn ~log:seq_log topo s in
  let seq_digest = Cst.Exec_log.digest seq_log in
  List.for_all
    (fun domains ->
      let log = Cst.Exec_log.create () in
      match Padr.Par_engine.run ~domains ~log topo s with
      | Error _ -> false
      | Ok (sched, stats) ->
          Cst.Exec_log.digest log = seq_digest
          && stats_eq stats seq_stats
          && sched.Padr.Schedule.cycles = seq_sched.Padr.Schedule.cycles
          && sched.power = seq_sched.power
          && Padr.Schedule.all_deliveries sched
             = Padr.Schedule.all_deliveries seq_sched)
    [ 1; 2; 4; 8 ]

let merged_alternations_match_sequential params =
  let s = set_of_params params in
  let topo = Padr.topology_for s in
  let seq_log = Cst.Exec_log.create () in
  let _ = Padr.Engine.run_exn ~log:seq_log topo s in
  let log = Cst.Exec_log.create () in
  match Padr.Par_engine.run ~domains:4 ~log topo s with
  | Error _ -> false
  | Ok _ ->
      (* Per-switch alternation counts survive the merge exactly, and
         stay within the envelope random sets obey (the strict Theorem 8
         constant is certified on width-controlled families below). *)
      let touched = Hashtbl.create 64 in
      Cst.Exec_log.iter log (function
        | Cst.Exec_log.Connect { node; _ } -> Hashtbl.replace touched node ()
        | _ -> ());
      Hashtbl.fold
        (fun node () ok ->
          let merged = Cst.Exec_log.driver_alternations log ~node in
          ok
          && merged = Cst.Exec_log.driver_alternations seq_log ~node
          && merged <= Padr.Verify.default_power_bound)
        touched true

(* The Theorem 8 certificate on the merged log: across widths 2..256
   the busiest port of the segment-parallel run alternates at most
   twice, exactly as the sequential CSA does. *)
let test_merged_alternations_flat_in_width () =
  let n = 1024 in
  let topo = Cst.Topology.create ~leaves:n in
  List.iter
    (fun w ->
      let rng = Cst_util.Prng.create (100 + w) in
      let s = Cst_workloads.Gen_wn.with_width rng ~n ~width:w in
      let log = Cst.Exec_log.create () in
      let _ = Result.get_ok (Padr.Par_engine.run ~domains:2 ~log topo s) in
      for node = 1 to n - 1 do
        check_true
          (Printf.sprintf "<= 2 alternations at width %d node %d" w node)
          (Cst.Exec_log.driver_alternations log ~node <= 2)
      done)
    [ 2; 4; 8; 16; 32; 64; 128; 256 ]

let test_par_empty_set () =
  let s = Cst_comm.Comm_set.empty ~n:8 in
  let topo = Padr.topology_for s in
  let seq_log = Cst.Exec_log.create () in
  let _ = Padr.Engine.run_exn ~log:seq_log topo s in
  let log = Cst.Exec_log.create () in
  let sched, _ =
    Result.get_ok (Padr.Par_engine.run ~log topo s)
  in
  check_int "zero rounds" 0 (Padr.Schedule.num_rounds sched);
  check_true "digest"
    (Cst.Exec_log.digest log = Cst.Exec_log.digest seq_log)

let test_par_rejects_crossing () =
  let s = set ~n:8 [ (0, 2); (1, 3) ] in
  let topo = Padr.topology_for s in
  match Padr.Par_engine.run topo s with
  | Error (Padr.Csa.Not_well_nested _) -> ()
  | _ -> Alcotest.fail "expected Not_well_nested"

(* --- Exec_log.merge edge cases --------------------------------------- *)

let single_run_log ~n pairs =
  let s = set ~n pairs in
  let topo = Padr.topology_for s in
  let log = Cst.Exec_log.create () in
  let _ = Padr.Engine.run_exn ~log topo s in
  log

let test_merge_levels_mismatch () =
  let log = single_run_log ~n:8 [ (0, 3) ] in
  check_raises_invalid "levels mismatch" (fun () ->
      Cst.Exec_log.merge ~levels:5 [ log ])

let test_merge_rejects_truncated () =
  let log = single_run_log ~n:8 [ (0, 3) ] in
  let truncated = Cst.Exec_log.create () in
  Cst.Exec_log.iter ~upto:(Cst.Exec_log.length log - 1) log
    (Cst.Exec_log.append truncated);
  check_raises_invalid "missing run-end" (fun () ->
      Cst.Exec_log.merge ~levels:3 [ truncated ])

let test_merge_into_appends () =
  let log = single_run_log ~n:8 [ (0, 3); (1, 2) ] in
  let into = Cst.Exec_log.create () in
  Cst.Exec_log.deliver into ~src:0 ~dst:1;
  let from = Cst.Exec_log.length into in
  let merged = Cst.Exec_log.merge ~into ~levels:3 [ log ] in
  check_true "same log" (merged == into);
  check_true "suffix digest"
    (Cst.Exec_log.digest ~from merged = Cst.Exec_log.digest log)

let suite =
  [
    case "blocks: empty set" test_blocks_empty;
    case "blocks: disjoint pairs" test_blocks_disjoint_pairs;
    case "blocks: alignment merges disjoint spans" test_blocks_alignment_merges;
    case "blocks: wide root swallows closed groups" test_blocks_cascade_merge;
    case "blocks: root in interval gap" test_blocks_root_in_gap;
    case "blocks: localize shifts to block coordinates" test_blocks_localize;
    case "blocks: rejects non-right-oriented / crossing"
      test_blocks_rejects_bad_input;
    case "blocks: slices allocate per block, not per PE"
      test_blocks_allocate_per_block;
    case "blocks: slice roles built on first read, domain-safe"
      test_block_roles_on_first_read;
    prop "blocks partition into disjoint aligned intervals" blocks_partition;
    prop "par run == sequential engine (domains 1/2/4/8)" ~count:200
      par_equals_sequential;
    prop "merged alternation counts == sequential" ~count:60
      merged_alternations_match_sequential;
    case "merged log keeps <=2 alternations across widths"
      test_merged_alternations_flat_in_width;
    case "par: empty set" test_par_empty_set;
    case "par: rejects crossing set" test_par_rejects_crossing;
    case "merge: levels mismatch raises" test_merge_levels_mismatch;
    case "merge: truncated run raises" test_merge_rejects_truncated;
    case "merge: ?into appends" test_merge_into_appends;
  ]
