open Helpers

(* Plan compilation and replay (Padr.Plan / Cst.Canon /
   Exec_log.rebase): a replayed plan must be byte-identical to a fresh
   run — same structural digest, same power units, same round and cycle
   counts — at the compiled placement, under aligned translation, and
   across tree sizes. *)

let events log = Cst.Exec_log.fold log ~init:[] ~f:(fun acc e -> e :: acc)

let power_eq msg (a : Padr.Schedule.power) (b : Padr.Schedule.power) =
  check_int (msg ^ ": connects") a.total_connects b.total_connects;
  check_int (msg ^ ": disconnects") a.total_disconnects b.total_disconnects;
  check_int (msg ^ ": writes") a.total_writes b.total_writes;
  check_int (msg ^ ": max connects/switch") a.max_connects_per_switch
    b.max_connects_per_switch;
  check_int (msg ^ ": max writes/switch") a.max_writes_per_switch
    b.max_writes_per_switch

(* --- Canon ---------------------------------------------------------- *)

let test_canon_translation_invariant () =
  let s = set ~n:32 [ (4, 7); (5, 6) ] in
  let p = Cst.Canon.place s in
  check_int "align" 4 (Cst.Canon.align p.canon);
  check_int "base" 4 p.base;
  (* Aligned translation: same signature, shifted base. *)
  let t = Cst_workloads.Gen_wn.translate ~by:8 s in
  let pt = Cst.Canon.place t in
  check_true "aligned translate keeps the signature"
    (Cst.Canon.equal p.canon pt.canon);
  check_int "translated base" 12 pt.base;
  (* Misaligned translation changes the position inside the block —
     a different signature (and genuinely different routing). *)
  let m = Cst_workloads.Gen_wn.translate ~by:2 s in
  let pm = Cst.Canon.place m in
  check_true "misaligned translate changes the signature"
    (not (Cst.Canon.equal p.canon pm.canon))

let test_canon_leaves_independent () =
  let comms = [ (9, 14); (10, 13) ] in
  let a = Cst.Canon.place (set ~n:16 comms) in
  let b = Cst.Canon.place (set ~n:256 comms) in
  check_true "signature ignores the tree size"
    (Cst.Canon.equal a.canon b.canon);
  check_int "same base" a.base b.base

let test_canon_empty () =
  let p = Cst.Canon.place (Cst_comm.Comm_set.empty ~n:8) in
  check_int "empty align" 1 (Cst.Canon.align p.canon);
  check_int "empty base" 0 p.base;
  check_int "empty size" 0 (Cst.Canon.size p.canon)

let test_canon_compatible () =
  let p = Cst.Canon.place (set ~n:32 [ (4, 7); (5, 6) ]) in
  check_true "fits at 4/32" (Cst.Canon.compatible p.canon ~leaves:32 ~base:4);
  check_true "fits at 0/8" (Cst.Canon.compatible p.canon ~leaves:8 ~base:0);
  check_true "rejects misaligned base"
    (not (Cst.Canon.compatible p.canon ~leaves:32 ~base:2));
  check_true "rejects overflow"
    (not (Cst.Canon.compatible p.canon ~leaves:4 ~base:4));
  check_true "rejects non-pow2 leaves"
    (not (Cst.Canon.compatible p.canon ~leaves:12 ~base:4))

(* --- replay == fresh run at the compiled placement ------------------- *)

let replay_equals_fresh producer params =
  let s = set_of_params params in
  let topo = Padr.topology_for s in
  let fresh_log = Cst.Exec_log.create () in
  let fresh =
    match producer with
    | Padr.Plan.Spec -> Padr.Csa.run_exn ~log:fresh_log topo s
    | Padr.Plan.Engine -> fst (Padr.Engine.run_exn ~log:fresh_log topo s)
  in
  let plan = Result.get_ok (Padr.Plan.compile ~producer topo s) in
  let r = Padr.Plan.replay plan topo s in
  check_true "digest" (Cst.Exec_log.digest r.log = Cst.Exec_log.digest fresh_log);
  power_eq "power" fresh.power r.schedule.power;
  check_int "rounds" (Padr.Schedule.num_rounds fresh)
    (Padr.Schedule.num_rounds r.schedule);
  check_int "cycles" fresh.cycles r.schedule.cycles;
  check_int "width" fresh.width r.schedule.width;
  check_true "deliveries"
    (Padr.Schedule.all_deliveries fresh
    = Padr.Schedule.all_deliveries r.schedule);
  true

(* --- replay under aligned translation and across tree sizes ---------- *)

(* A random set confined to the first [m] leaves of an [n]-leaf tree,
   so there is room to translate it block-by-block. *)
let embedded_set ~seed ~m ~n =
  let rng = Cst_util.Prng.create seed in
  let small = Cst_workloads.Gen_wn.uniform rng ~n:m ~density:1.0 in
  Cst_comm.Comm_set.create_exn ~n
    (Array.to_list (Cst_comm.Comm_set.comms small))

let translated_replay_roundtrip producer ~seed ~m ~n =
  let s = embedded_set ~seed ~m ~n in
  if Cst_comm.Comm_set.size s = 0 then ()
  else begin
    let topo = Cst.Topology.create ~leaves:n in
    let plan = Result.get_ok (Padr.Plan.compile ~producer topo s) in
    let placed = Cst.Canon.place s in
    let align = Cst.Canon.align placed.canon in
    let max_k = (n - placed.base - align) / align in
    List.iter
      (fun k ->
        if k >= 1 && k <= max_k then begin
          let t = Cst_workloads.Gen_wn.translate ~by:(k * align) s in
          let fresh_log = Cst.Exec_log.create () in
          let fresh =
            match producer with
            | Padr.Plan.Spec -> Padr.Csa.run_exn ~log:fresh_log topo t
            | Padr.Plan.Engine ->
                fst (Padr.Engine.run_exn ~log:fresh_log topo t)
          in
          let r = Padr.Plan.replay plan topo t in
          check_true
            (Printf.sprintf "translated digest (seed %d, +%d)" seed
               (k * align))
            (Cst.Exec_log.digest r.log = Cst.Exec_log.digest fresh_log);
          power_eq "translated power" fresh.power r.schedule.power;
          check_int "translated rounds"
            (Padr.Schedule.num_rounds fresh)
            (Padr.Schedule.num_rounds r.schedule);
          check_int "translated cycles" fresh.cycles r.schedule.cycles;
          check_true "translated deliveries"
            (Padr.Schedule.all_deliveries fresh
            = Padr.Schedule.all_deliveries r.schedule)
        end)
      [ 1; 2; max_k ]
  end

let test_translated_replay_spec () =
  for seed = 1 to 25 do
    translated_replay_roundtrip Padr.Plan.Spec ~seed ~m:16 ~n:128;
    translated_replay_roundtrip Padr.Plan.Spec ~seed:(seed + 100) ~m:32 ~n:128
  done

let test_translated_replay_engine () =
  for seed = 1 to 25 do
    translated_replay_roundtrip Padr.Plan.Engine ~seed ~m:16 ~n:128;
    translated_replay_roundtrip Padr.Plan.Engine ~seed:(seed + 100) ~m:32
      ~n:128
  done

(* A hit at the compiled placement and tree size shares the cached
   plan's arena; it, and a translated hit, stream exactly the config
   snapshots of a fresh engine run. *)
let test_replay_hits_stream_fresh_snapshots () =
  let topo = Cst.Topology.create ~leaves:64 in
  let fresh set = snapshots (fst (Padr.Engine.run_exn topo set)) in
  for seed = 1 to 10 do
    let s = embedded_set ~seed ~m:16 ~n:64 in
    let plan = Result.get_ok (Padr.Plan.compile topo s) in
    let home = Padr.Plan.replay plan topo s in
    check_true "the hit shares the plan's arena"
      (match home.schedule.source with
      | Some src -> src.log == plan.log
      | None -> false);
    check_true
      (Printf.sprintf "compiled-placement snapshots (seed %d)" seed)
      (snapshots home.schedule = fresh s);
    check_true "snapshots present"
      (Cst_comm.Comm_set.size s = 0 || snapshots home.schedule <> []);
    let align = Cst.Canon.align (Cst.Canon.place s).canon in
    let t = Cst_workloads.Gen_wn.translate ~by:(2 * align) s in
    check_true
      (Printf.sprintf "translated snapshots (seed %d)" seed)
      (snapshots (Padr.Plan.replay plan topo t).schedule = fresh t)
  done

let cross_size_replay producer ~seed =
  (* Compile on a 64-leaf tree, replay onto 512 leaves (same and shifted
     placement): cycles and control messages come from the producer's
     model for the bigger tree, the digest from the rebased log. *)
  let s64 = embedded_set ~seed ~m:32 ~n:64 in
  if Cst_comm.Comm_set.size s64 = 0 then ()
  else begin
    let topo64 = Cst.Topology.create ~leaves:64 in
    let topo512 = Cst.Topology.create ~leaves:512 in
    let plan = Result.get_ok (Padr.Plan.compile ~producer topo64 s64) in
    let placed = Cst.Canon.place s64 in
    let align = Cst.Canon.align placed.canon in
    List.iter
      (fun k ->
        let by = k * align in
        if placed.base + by + align <= 512 then begin
          let t =
            Cst_comm.Comm_set.create_exn ~n:512
              (List.map
                 (fun (c : Cst_comm.Comm.t) ->
                   Cst_comm.Comm.make ~src:(c.src + by) ~dst:(c.dst + by))
                 (Array.to_list (Cst_comm.Comm_set.comms s64)))
          in
          let fresh_log = Cst.Exec_log.create () in
          let fresh, fresh_msgs =
            match producer with
            | Padr.Plan.Spec ->
                (Padr.Csa.run_exn ~log:fresh_log topo512 t, 0)
            | Padr.Plan.Engine ->
                let s, stats = Padr.Engine.run_exn ~log:fresh_log topo512 t in
                (s, stats.control_messages)
          in
          let r = Padr.Plan.replay plan topo512 t in
          check_true
            (Printf.sprintf "cross-size digest (seed %d, +%d)" seed by)
            (Cst.Exec_log.digest r.log = Cst.Exec_log.digest fresh_log);
          check_int "cross-size cycles" fresh.cycles r.schedule.cycles;
          check_int "cross-size control messages" fresh_msgs
            r.control_messages;
          power_eq "cross-size power" fresh.power r.schedule.power
        end)
      [ 0; 1; 7 ]
  end

let test_cross_size_spec () =
  for seed = 1 to 15 do
    cross_size_replay Padr.Plan.Spec ~seed
  done

let test_cross_size_engine () =
  for seed = 1 to 15 do
    cross_size_replay Padr.Plan.Engine ~seed
  done

(* Every registry algorithm is cacheable by the service: its frozen run
   must replay digest-identically onto an aligned translate. *)
let test_registry_algos_replay_translated () =
  List.iter
    (fun (a : Cst_baselines.Registry.algo) ->
      for seed = 1 to 8 do
        let s = embedded_set ~seed ~m:16 ~n:64 in
        if Cst_comm.Comm_set.size s > 0 then begin
          let topo = Cst.Topology.create ~leaves:64 in
          let log = Cst.Exec_log.create () in
          let sched = a.run ~log topo s in
          let plan =
            Padr.Plan.of_log ~producer:Spec ~topo ~set:s
              ~rounds:(Padr.Schedule.num_rounds sched)
              ~cycles:sched.cycles log
          in
          let placed = Cst.Canon.place s in
          let align = Cst.Canon.align placed.canon in
          let max_k = (64 - placed.base - align) / align in
          if max_k >= 1 then begin
            let t = Cst_workloads.Gen_wn.translate ~by:(max_k * align) s in
            let fresh_log = Cst.Exec_log.create () in
            ignore (a.run ~log:fresh_log topo t);
            let r = Padr.Plan.replay plan topo t in
            check_true
              (Printf.sprintf "%s replay digest (seed %d)" a.name seed)
              (Cst.Exec_log.digest r.log = Cst.Exec_log.digest fresh_log)
          end
        end
      done)
    Cst_baselines.Registry.all

(* --- rebase round-trip ----------------------------------------------- *)

let test_rebase_roundtrip () =
  for seed = 1 to 20 do
    let s = embedded_set ~seed ~m:16 ~n:64 in
    if Cst_comm.Comm_set.size s > 0 then begin
      let topo = Cst.Topology.create ~leaves:64 in
      let log = Cst.Exec_log.create () in
      ignore (Padr.Engine.run_exn ~log topo s);
      let placed = Cst.Canon.place s in
      let align = Cst.Canon.align placed.canon in
      let max_k = (64 - placed.base - align) / align in
      if max_k >= 1 then begin
        let by = max_k * align in
        let there =
          Cst.Exec_log.rebase log ~src_leaves:64 ~src_base:placed.base
            ~dst_leaves:64 ~dst_base:(placed.base + by) ~align
        in
        let back =
          Cst.Exec_log.rebase there ~src_leaves:64
            ~src_base:(placed.base + by) ~dst_leaves:64 ~dst_base:placed.base
            ~align
        in
        check_int "round-trip length" (Cst.Exec_log.length log)
          (Cst.Exec_log.length back);
        check_true "round-trip events" (events log = events back);
        check_true "round-trip digest"
          (Cst.Exec_log.digest log = Cst.Exec_log.digest back)
      end
    end
  done

(* Translate [s] into an [n]-leaf tree, shifting every PE by [by]. *)
let embed ~n ~by s =
  Cst_comm.Comm_set.create_exn ~n
    (List.map
       (fun (c : Cst_comm.Comm.t) ->
         Cst_comm.Comm.make ~src:(c.src + by) ~dst:(c.dst + by))
       (Array.to_list (Cst_comm.Comm_set.comms s)))

(* Rebase across tree sizes with non-zero offsets: a run frozen on a
   16-leaf tree, rebased into a bigger tree at a shifted aligned base,
   is byte-identical to running the translated set there directly — and
   the big-tree log rebases back down to the original, event for
   event. *)
let test_rebase_cross_size_offsets () =
  for seed = 1 to 15 do
    let rng = Cst_util.Prng.create (400 + seed) in
    let s16 = Cst_workloads.Gen_wn.uniform rng ~n:16 ~density:1.0 in
    if Cst_comm.Comm_set.size s16 > 0 then begin
      let topo16 = Cst.Topology.create ~leaves:16 in
      let log16 = Cst.Exec_log.create () in
      ignore (Padr.Engine.run_exn ~log:log16 topo16 s16);
      List.iter
        (fun (dst_leaves, dst_base) ->
          let topo = Cst.Topology.create ~leaves:dst_leaves in
          let t = embed ~n:dst_leaves ~by:dst_base s16 in
          let fresh_log = Cst.Exec_log.create () in
          ignore (Padr.Engine.run_exn ~log:fresh_log topo t);
          let rebased =
            Cst.Exec_log.rebase log16 ~src_leaves:16 ~src_base:0 ~dst_leaves
              ~dst_base ~align:16
          in
          check_true
            (Printf.sprintf "digest at %d+%d (seed %d)" dst_leaves dst_base
               seed)
            (Cst.Exec_log.digest rebased = Cst.Exec_log.digest fresh_log);
          let back =
            Cst.Exec_log.rebase fresh_log ~src_leaves:dst_leaves
              ~src_base:dst_base ~dst_leaves:16 ~dst_base:0 ~align:16
          in
          check_true
            (Printf.sprintf "round-trip to the small tree (seed %d)" seed)
            (events back = events log16))
        [ (64, 16); (64, 48); (256, 240); (1024, 512) ]
    end
  done

(* A plan compiled on a small tree replays at a shifted base on a much
   bigger one: Plan.replay rebases the frozen log across both the size
   and the offset in one step. *)
let test_small_plan_replays_on_big_tree () =
  let s = set ~n:16 [ (0, 15); (1, 2); (4, 11) ] in
  let topo16 = Cst.Topology.create ~leaves:16 in
  let plan =
    Result.get_ok (Padr.Plan.compile ~producer:Engine topo16 s)
  in
  let topo256 = Cst.Topology.create ~leaves:256 in
  List.iter
    (fun by ->
      let t = embed ~n:256 ~by s in
      let fresh_log = Cst.Exec_log.create () in
      let fresh, stats = Padr.Engine.run_exn ~log:fresh_log topo256 t in
      let r = Padr.Plan.replay plan topo256 t in
      check_true
        (Printf.sprintf "digest at 256+%d" by)
        (Cst.Exec_log.digest r.log = Cst.Exec_log.digest fresh_log);
      check_int "cycles from the big-tree model" fresh.cycles
        r.schedule.cycles;
      check_int "control messages from the big-tree model"
        stats.control_messages r.control_messages;
      power_eq "power" fresh.power r.schedule.power)
    [ 16; 96; 240 ]

(* The unaligned-offset counterexample: shifting by anything that is
   not a multiple of the block alignment moves the set relative to the
   switches above it, so neither rebase nor replay may accept it. *)
let test_unaligned_offset_counterexample () =
  let s = set ~n:16 [ (0, 15); (1, 2) ] in
  let topo16 = Cst.Topology.create ~leaves:16 in
  let log = Cst.Exec_log.create () in
  ignore (Padr.Engine.run_exn ~log topo16 s);
  check_raises_invalid "rebase to an unaligned base" (fun () ->
      Cst.Exec_log.rebase log ~src_leaves:16 ~src_base:0 ~dst_leaves:256
        ~dst_base:40 ~align:16);
  let plan = Result.get_ok (Padr.Plan.compile ~producer:Engine topo16 s) in
  let topo256 = Cst.Topology.create ~leaves:256 in
  check_raises_invalid "replay at an unaligned base" (fun () ->
      Padr.Plan.replay plan topo256 (embed ~n:256 ~by:40 s))

let test_rebase_rejects_bad_geometry () =
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.connect log ~node:3 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  check_raises_invalid "misaligned base" (fun () ->
      Cst.Exec_log.rebase log ~src_leaves:8 ~src_base:1 ~dst_leaves:8
        ~dst_base:0 ~align:2);
  check_raises_invalid "non-pow2 leaves" (fun () ->
      Cst.Exec_log.rebase log ~src_leaves:6 ~src_base:0 ~dst_leaves:8
        ~dst_base:0 ~align:2);
  (* node 3 is outside the subtree of block [4, 6) of an 8-leaf tree
     (root 4/2 + 8/2 = 6). *)
  check_raises_invalid "event outside the block" (fun () ->
      Cst.Exec_log.rebase log ~src_leaves:8 ~src_base:4 ~dst_leaves:8
        ~dst_base:0 ~align:2)

let test_replay_rejects_mismatch () =
  let s = set ~n:16 [ (1, 2) ] in
  let topo = Cst.Topology.create ~leaves:16 in
  let plan = Result.get_ok (Padr.Plan.compile topo s) in
  check_raises_invalid "different structure" (fun () ->
      Padr.Plan.replay plan topo (set ~n:16 [ (1, 4) ]));
  check_raises_invalid "misaligned translate" (fun () ->
      Padr.Plan.replay plan topo (set ~n:16 [ (2, 3) ]))

(* --- log-only relocation ----------------------------------------------- *)

(* [relocate] is [replay] without the schedule: on the compiled
   placement, under aligned translation and across tree sizes, its log
   is the replay's log word for word (the codec writes the raw words),
   and so is the log of either when handed the set's placement. *)
let test_relocate_matches_replay () =
  let words log = Cst.Exec_log.Codec.encode log in
  let topo64 = Cst.Topology.create ~leaves:64 in
  let topo512 = Cst.Topology.create ~leaves:512 in
  List.iter
    (fun producer ->
      for seed = 1 to 10 do
        let s = embedded_set ~seed ~m:16 ~n:64 in
        let plan = Result.get_ok (Padr.Plan.compile ~producer topo64 s) in
        let placed = Cst.Canon.place s in
        let align = Cst.Canon.align placed.canon in
        List.iter
          (fun (topo, by) ->
            let n = Cst.Topology.leaves topo in
            if placed.base + by + align <= n then begin
              let t = embed ~n ~by s in
              let relocated = Padr.Plan.relocate plan topo t in
              let replayed = Padr.Plan.replay plan topo t in
              let placed = Cst.Canon.place t in
              List.iter
                (fun (what, log) ->
                  check_true
                    (Printf.sprintf "relocate = %s log (seed %d, %d+%d)" what
                       seed n by)
                    (Bytes.equal (words relocated) (words log)))
                [
                  ("replay", replayed.log);
                  ("placed relocate", Padr.Plan.relocate ~placed plan topo t);
                  ("placed replay", (Padr.Plan.replay ~placed plan topo t).log);
                ]
            end)
          [
            (topo64, 0);
            (topo64, align);
            (topo64, 3 * align);
            (topo512, 0);
            (topo512, 5 * align);
            (topo512, 448);
          ]
      done)
    [ Padr.Plan.Spec; Padr.Plan.Engine ]

(* Every input [replay] rejects, [relocate] rejects with the identical
   [Invalid_argument] — one check, one message — and so does either when
   handed the set's placement. *)
let same_rejection what plan topo s =
  let message f =
    match f () with
    | exception Invalid_argument m -> m
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  in
  let by_replay = message (fun () -> ignore (Padr.Plan.replay plan topo s)) in
  let placed = Cst.Canon.place s in
  List.iter
    (fun f -> Alcotest.(check string) what by_replay (message f))
    [
      (fun () -> ignore (Padr.Plan.relocate plan topo s));
      (fun () -> ignore (Padr.Plan.relocate ~placed plan topo s));
      (fun () -> ignore (Padr.Plan.replay ~placed plan topo s));
    ]

let test_relocate_rejects_like_replay () =
  let topo16 = Cst.Topology.create ~leaves:16 in
  let s = set ~n:16 [ (0, 3); (1, 2) ] in
  let plan = Result.get_ok (Padr.Plan.compile topo16 s) in
  same_rejection "signature mismatch" plan topo16 (set ~n:16 [ (0, 3) ]);
  same_rejection "set too large" plan
    (Cst.Topology.create ~leaves:8)
    (set ~n:16 [ (4, 7); (5, 6) ]);
  (* On a binary tree a set that fits always has a compatible aligned
     block, so the placement a plan cannot serve — a translate off its
     alignment — is caught by the signature, which records the set's
     position inside its block. *)
  same_rejection "translate off the alignment" plan topo16
    (Cst_workloads.Gen_wn.translate ~by:2 s);
  let kary = Cst.Topology.of_shape (Cst.Shape.kary ~k:4 ~leaves:16) in
  same_rejection "binary plan on a non-binary topology" plan kary s;
  let kplan = Result.get_ok (Padr.Plan.compile kary s) in
  same_rejection "non-binary plan on another shape" kplan
    (Cst.Topology.of_shape (Cst.Shape.kary ~k:16 ~leaves:16))
    s;
  same_rejection "non-binary plan at another placement" kplan kary
    (Cst_workloads.Gen_wn.translate ~by:4 s)

let suite =
  [
    case "canon: aligned translation invariant" test_canon_translation_invariant;
    case "canon: independent of tree size" test_canon_leaves_independent;
    case "canon: empty set" test_canon_empty;
    case "canon: compatibility checks" test_canon_compatible;
    prop "replay == fresh run (spec)" ~count:100 (replay_equals_fresh Spec);
    prop "replay == fresh run (engine)" ~count:100 (replay_equals_fresh Engine);
    case "translated replay == fresh (spec)" test_translated_replay_spec;
    case "translated replay == fresh (engine)" test_translated_replay_engine;
    case "replay hits stream fresh snapshots"
      test_replay_hits_stream_fresh_snapshots;
    case "cross-size replay (spec)" test_cross_size_spec;
    case "cross-size replay (engine)" test_cross_size_engine;
    case "registry algorithms replay translated"
      test_registry_algos_replay_translated;
    case "rebase round-trip is identity" test_rebase_roundtrip;
    case "rebase across tree sizes with offsets" test_rebase_cross_size_offsets;
    case "small plan replays on a big tree" test_small_plan_replays_on_big_tree;
    case "unaligned offset is rejected" test_unaligned_offset_counterexample;
    case "rebase rejects bad geometry" test_rebase_rejects_bad_geometry;
    case "replay rejects signature mismatch" test_replay_rejects_mismatch;
    case "relocate log = replay log" test_relocate_matches_replay;
    case "relocate rejects what replay rejects"
      test_relocate_rejects_like_replay;
  ]
