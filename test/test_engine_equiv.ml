(* Schedule-equivalence guard: the sparse-frontier engine (Engine.run)
   must be observationally identical to the functional spec (Csa.run) —
   same rounds, sources, dests, deliveries, streamed config snapshots,
   power and log digest — and both must match the unpruned reference
   (Helpers.Reference), and the engine's hardware statistics must equal
   Theorem 5's closed form (Topology.engine_cost), across a broad
   randomized sweep of sizes, densities and widths. *)

open Helpers

let check_power msg (a : Padr.Schedule.power) (b : Padr.Schedule.power) =
  check_int (msg ^ ": total connects") a.total_connects b.total_connects;
  check_int (msg ^ ": total disconnects") a.total_disconnects
    b.total_disconnects;
  check_int (msg ^ ": total writes") a.total_writes b.total_writes;
  check_int (msg ^ ": max connects/switch") a.max_connects_per_switch
    b.max_connects_per_switch;
  check_int (msg ^ ": max writes/switch") a.max_writes_per_switch
    b.max_writes_per_switch;
  check_int (msg ^ ": max events/switch") a.max_events_per_switch
    b.max_events_per_switch;
  check_true (msg ^ ": per-switch ledger") (a.ledger = b.ledger)

let check_round msg (a : Padr.Schedule.round) (b : Padr.Schedule.round) =
  check_int (msg ^ ": index") a.index b.index;
  check_true (msg ^ ": sources") (a.sources = b.sources);
  check_true (msg ^ ": dests") (a.dests = b.dests);
  check_true (msg ^ ": deliveries") (a.deliveries = b.deliveries)

(* Streamed configuration snapshots, round by round. *)
let check_snapshots msg a b =
  let sa = snapshots a and sb = snapshots b in
  check_int (msg ^ ": snapshot rounds") (List.length sa) (List.length sb);
  List.iter2
    (fun (index_a, live_a) (index_b, live_b) ->
      let msg = Printf.sprintf "%s round %d" msg index_a in
      check_int (msg ^ ": snapshot index") index_a index_b;
      check_int (msg ^ ": config count") (List.length live_a)
        (List.length live_b);
      List.iter2
        (fun (node_a, cfg_a) (node_b, cfg_b) ->
          check_int (msg ^ ": config node") node_a node_b;
          check_true (msg ^ ": config value")
            (Cst.Switch_config.equal cfg_a cfg_b))
        live_a live_b)
    sa sb

let check_equiv msg topo set =
  let spec_log = Cst.Exec_log.create () in
  let spec = Padr.Csa.run_exn ~log:spec_log topo set in
  let eng_log = Cst.Exec_log.create () in
  let eng, stats = Padr.Engine.run_exn ~log:eng_log topo set in
  let rounds = Padr.Schedule.num_rounds spec in
  check_int (msg ^ ": rounds") rounds (Padr.Schedule.num_rounds eng);
  check_int (msg ^ ": width") spec.width eng.width;
  Array.iteri
    (fun i r -> check_round (Printf.sprintf "%s round %d" msg i) r
        eng.rounds.(i))
    spec.rounds;
  check_snapshots msg spec eng;
  check_power msg spec.power eng.power;
  check_true (msg ^ ": digest")
    (Cst.Exec_log.digest spec_log = Cst.Exec_log.digest eng_log);
  (* The unpruned reference shares neither producer's pruning rule: the
     spec's log equals its log byte for byte, and the engine's, which
     reconfigures in its own visit order, digest for digest. *)
  let ref_net = Cst.Net.create topo in
  check_int (msg ^ ": reference rounds") rounds (Reference.run ref_net set);
  let ref_log = Cst.Net.log ref_net in
  check_true (msg ^ ": spec log = reference log")
    (Bytes.equal
       (Cst.Exec_log.Codec.encode spec_log)
       (Cst.Exec_log.Codec.encode ref_log));
  check_true (msg ^ ": engine digest = reference digest")
    (Cst.Exec_log.digest eng_log = Cst.Exec_log.digest ref_log);
  (* Theorem 5's costs: the closed form, two-word Phase-1 messages and
     four-word down messages, five words of switch state. *)
  let cycles, messages = Cst.Topology.engine_cost topo ~rounds in
  check_int (msg ^ ": cycles") cycles eng.cycles;
  check_int (msg ^ ": stat cycles") cycles stats.cycles;
  check_int (msg ^ ": stat messages") messages stats.control_messages;
  check_int (msg ^ ": stat max words")
    (if rounds = 0 then 2 else 4)
    stats.max_message_words;
  check_int (msg ^ ": stat state words") 5 stats.state_words_per_switch

(* ~200 random well-nested sets: sizes 4..512, all densities. *)
let test_random_sweep () =
  let cases = ref 0 in
  let rng = Cst_util.Prng.create 0xE9 in
  while !cases < 200 do
    incr cases;
    let n = 1 lsl (2 + Cst_util.Prng.int rng 8) in
    let density = 0.05 +. Cst_util.Prng.float rng 0.95 in
    let set = Cst_workloads.Gen_wn.uniform rng ~n ~density in
    check_equiv
      (Printf.sprintf "case %d (n=%d)" !cases n)
      (topo n) set
  done

(* Width-targeted sets hit the frontier pruning hardest: few active paths
   in a large tree. *)
let test_width_targeted () =
  let rng = Cst_util.Prng.create 0xF1 in
  List.iter
    (fun (n, w) ->
      let set = Cst_workloads.Gen_wn.with_width rng ~n ~width:w in
      check_equiv (Printf.sprintf "width %d on %d PEs" w n) (topo n) set)
    [ (64, 1); (64, 8); (256, 2); (256, 16); (1024, 4); (1024, 32) ]

let test_degenerate () =
  check_equiv "empty" (topo 8) (set ~n:8 []);
  check_equiv "single long" (topo 8) (set ~n:8 [ (0, 7) ]);
  check_equiv "single short" (topo 8) (set ~n:8 [ (3, 4) ]);
  check_equiv "full onion" (topo 16)
    (set ~n:16 [ (0, 15); (1, 14); (2, 13); (3, 12); (4, 11); (5, 10) ]);
  check_equiv "nested mix" (topo 16)
    (set ~n:16 [ (0, 15); (1, 6); (2, 3); (4, 5); (8, 13) ]);
  (* a set smaller than the tree it runs on *)
  check_equiv "oversized tree" (topo 64) (set ~n:8 [ (1, 2); (4, 7) ])

(* A schedule derived with [Schedule.of_log ~keep_configs:false] retains
   no log: neither the spec's nor the engine's run then streams a
   snapshot, and the deliveries still match round for round. *)
let test_keep_configs_false () =
  let t = topo 32 in
  let rng = Cst_util.Prng.create 99 in
  let s = Cst_workloads.Gen_wn.uniform rng ~n:32 ~density:0.8 in
  let bare run =
    let log = Cst.Exec_log.create () in
    let sched : Padr.Schedule.t = run log in
    Padr.Schedule.of_log ~keep_configs:false ~set:s ~topo:t
      ~cycles:sched.cycles log
  in
  let spec = bare (fun log -> Padr.Csa.run_exn ~log t s) in
  let eng = bare (fun log -> fst (Padr.Engine.run_exn ~log t s)) in
  check_true "no spec snapshots" (snapshots spec = []);
  check_true "no engine snapshots" (snapshots eng = []);
  check_true "rounds" (spec.rounds = eng.rounds);
  check_true "rounds scheduled" (Padr.Schedule.num_rounds spec > 0)

(* Satellite of the Stalled error work: generator-produced well-nested
   sets can never stall the engine or the spec (Theorem 4 progress
   guarantee). *)
let prop_never_stalls =
  prop "well-nested sets never stall the engines" ~count:150 (fun params ->
      let s = set_of_params params in
      let t = Padr.topology_for s in
      let ok = function
        | Ok _ -> true
        | Error (Padr.Csa.Stalled _) -> false
        | Error _ -> false
      in
      ok (Padr.Engine.run t s) && ok (Padr.Csa.run t s))

(* tiny substring helper, no extra deps *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_stalled_formatting () =
  let msg =
    Format.asprintf "%a" Padr.Csa.pp_error
      (Padr.Csa.Stalled { round = 3; remaining = 7 })
  in
  check_true "mentions round" (contains msg "round 3" && contains msg "7")

let suite =
  [
    case "random sweep (200 sets)" test_random_sweep;
    case "width-targeted" test_width_targeted;
    case "degenerate shapes" test_degenerate;
    case "keep_configs:false" test_keep_configs_false;
    prop_never_stalls;
    case "Stalled formats" test_stalled_formatting;
  ]
