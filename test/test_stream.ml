open Helpers
module Service = Cst_service.Service
module Stream = Cst_service.Stream
module Admission = Cst_service.Admission
module Stats = Cst_service.Stats
module Arrivals = Cst_workloads.Arrivals

(* A manual clock: the stream reads it on submit/tick/commit and from
   worker domains on completion, so tests control every timestamp the
   admission policy sees. *)
let manual_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun t -> now := t)

(* --- admission decision boundary ------------------------------------ *)

let view ?(jobs = 1) ?(opened = 0.0) ?(wait = 0.0) ?(width = 1) () :
    Admission.queue_view =
  { jobs; opened; accumulated_wait = wait; width }

let check_decision msg (expected : bool) actual = check_bool msg expected actual

let test_immediate_policy () =
  check_decision "empty epoch never commits" true
    (Admission.decide Admission.Immediate ~now:5.0 (view ~jobs:0 ()) = Wait);
  check_decision "one job commits" true
    (Admission.decide Admission.Immediate ~now:0.0 (view ()) = Commit)

let test_quantum_boundary () =
  let p = Admission.Quantum 1.0 in
  check_decision "just below the quantum waits" true
    (Admission.decide p ~now:0.999 (view ~opened:0.0 ()) = Wait);
  check_decision "at the quantum commits" true
    (Admission.decide p ~now:1.0 (view ~opened:0.0 ()) = Commit);
  check_decision "past the quantum commits" true
    (Admission.decide p ~now:7.5 (view ~opened:6.0 ()) = Commit);
  check_decision "empty epoch waits regardless" true
    (Admission.decide p ~now:9.0 (view ~jobs:0 ~opened:0.0 ()) = Wait)

let test_delta_boundary () =
  let p = Admission.Delta_threshold { delta = 2.0; max_width = None } in
  check_decision "accumulated wait below delta waits" true
    (Admission.decide p ~now:1.0 (view ~jobs:2 ~wait:1.999 ()) = Wait);
  check_decision "accumulated wait at delta commits" true
    (Admission.decide p ~now:1.0 (view ~jobs:2 ~wait:2.0 ()) = Commit);
  check_decision "accumulated wait above delta commits" true
    (Admission.decide p ~now:1.0 (view ~jobs:4 ~wait:3.5 ()) = Commit);
  let capped = Admission.Delta_threshold { delta = 1e9; max_width = Some 5 } in
  check_decision "width at the cap waits" true
    (Admission.decide capped ~now:1.0 (view ~width:5 ()) = Wait);
  check_decision "width above the cap commits" true
    (Admission.decide capped ~now:1.0 (view ~width:6 ()) = Commit)

let test_policy_strings () =
  let roundtrip s =
    match Admission.of_string s with
    | Ok p -> check_bool ("round-trips " ^ s) true (Admission.to_string p = s)
    | Error e -> Alcotest.failf "of_string %S: %s" s e
  in
  List.iter roundtrip [ "immediate"; "quantum:0.5"; "delta:16"; "delta:2:8" ];
  List.iter
    (fun s ->
      check_bool ("rejects " ^ s) true
        (Result.is_error (Admission.of_string s)))
    [ ""; "never"; "quantum"; "quantum:x"; "delta:-1"; "delta:1:0"; "delta:1:2:3" ]

(* --- the tentpole property ------------------------------------------ *)

(* Streaming must not change what the hardware does: for any arrival
   trace, any admission policy and any domain count, the drained
   outcomes (digest, rounds, power — the whole canonical line) equal the
   closed-batch run of the same jobs. *)

let algo_names = [ "csa"; "csa"; "roy-id"; "depth"; "not-an-algo" ]

let random_stream_job rng i =
  let n = 1 lsl (2 + Cst_util.Prng.int rng 4) in
  let set =
    match Cst_util.Prng.int rng 4 with
    | 0 ->
        let density = 0.1 +. Cst_util.Prng.float rng 0.9 in
        Cst_workloads.Gen_wn.uniform rng ~n ~density
    | 1 ->
        Cst_workloads.Gen_arbitrary.random_pairs rng ~n ~pairs:(max 1 (n / 4))
    | _ -> Cst_workloads.Gen_wn.pairs ~n
  in
  let algo =
    List.nth algo_names (Cst_util.Prng.int rng (List.length algo_names))
  in
  let engine =
    match Cst_util.Prng.int rng 6 with
    | 0 -> Service.Message_passing
    | 1 -> Service.Segmented
    | _ -> Service.Spec
  in
  Service.job ~engine ~id:i ~algo set

let policies =
  [
    Admission.Immediate;
    Admission.Quantum 0.3;
    Admission.Delta_threshold { delta = 0.5; max_width = None };
    Admission.Delta_threshold { delta = 1e9; max_width = Some 4 };
  ]

let test_stream_equals_batch =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"stream outcomes = closed batch, any policy and domain count"
       QCheck.(
         triple (int_bound 1_000_000)
           (int_range 0 (List.length policies - 1))
           (int_range 0 2))
       (fun (seed, policy_idx, domain_idx) ->
         let domains = [| 1; 2; 4 |].(domain_idx) in
         let policy = List.nth policies policy_idx in
         let rng = Cst_util.Prng.create seed in
         let jobs = List.init 12 (random_stream_job rng) in
         let trace = Arrivals.poisson rng ~rate:10.0 ~jobs:12 in
         let clock, set_time = manual_clock () in
         let st = Stream.create ~domains ~policy ~clock () in
         List.iteri
           (fun i job ->
             set_time trace.times.(i);
             Stream.submit st job;
             (* ticking between arrivals is how time-based policies
                commit; interleave some to exercise that path *)
             if i mod 3 = 2 then begin
               set_time (trace.times.(i) +. 0.05);
               Stream.tick st
             end)
           jobs;
         let streamed = Stream.drain st in
         Stream.shutdown st;
         let batch = Service.run ~domains:1 jobs in
         List.map
           (fun ((o : Service.outcome), _) -> Service.outcome_to_string o)
           streamed
         = List.map Service.outcome_to_string batch))

(* --- epoch mechanics (manual clock, deterministic) ------------------- *)

let wn_job ~id ~n pairs = Service.job ~id ~algo:"csa" (set ~n pairs)

let test_immediate_epochs () =
  let clock, set_time = manual_clock () in
  let st = Stream.create ~domains:1 ~clock () in
  for i = 0 to 4 do
    set_time (float_of_int i);
    Stream.submit st (wn_job ~id:i ~n:8 [ (0, 3); (1, 2) ])
  done;
  let outs = Stream.drain st in
  let s = Stream.stats st in
  Stream.shutdown st;
  check_int "one outcome per job" 5 (List.length outs);
  check_int "immediate: one epoch per job" 5 s.epochs;
  check_int "nothing coalesced" 0 s.coalesced_jobs;
  check_bool "recon power = delta * epochs" true
    (s.recon_power = s.recon_delta *. 5.0);
  List.iteri
    (fun i ((_ : Service.outcome), (tm : Stream.timing)) ->
      check_int "distinct epoch ids" i tm.epoch;
      check_bool "committed at arrival" true (tm.committed = tm.arrival))
    outs

let test_quantum_coalesces () =
  let clock, set_time = manual_clock () in
  let st = Stream.create ~domains:1 ~policy:(Admission.Quantum 1.0) ~clock () in
  set_time 0.0;
  Stream.submit st (wn_job ~id:0 ~n:8 [ (0, 1) ]);
  set_time 0.2;
  Stream.submit st (wn_job ~id:1 ~n:8 [ (2, 3) ]);
  set_time 0.9;
  Stream.tick st;
  check_int "quantum not elapsed: no epoch yet" 0 (Stream.stats st).epochs;
  set_time 1.0;
  Stream.tick st;
  let s = Stream.stats st in
  check_int "quantum elapsed: one epoch" 1 s.epochs;
  check_int "both jobs coalesced" 2 s.coalesced_jobs;
  let outs = Stream.drain st in
  Stream.shutdown st;
  List.iter
    (fun ((_ : Service.outcome), (tm : Stream.timing)) ->
      check_int "shared epoch" 0 tm.epoch;
      check_bool "committed at the tick" true (tm.committed = 1.0))
    outs

let test_delta_ski_rental () =
  let policy = Admission.Delta_threshold { delta = 1.0; max_width = None } in
  let clock, set_time = manual_clock () in
  let st = Stream.create ~domains:1 ~policy ~clock () in
  set_time 0.0;
  Stream.submit st (wn_job ~id:0 ~n:8 [ (0, 1) ]);
  set_time 0.2;
  Stream.submit st (wn_job ~id:1 ~n:8 [ (2, 3) ]);
  (* accumulated wait at t: (t - 0) + (t - 0.2); reaches 1.0 at t=0.6 *)
  set_time 0.55;
  Stream.tick st;
  check_int "wait below delta: open" 0 (Stream.stats st).epochs;
  set_time 0.6;
  Stream.tick st;
  check_int "wait reached delta: committed" 1 (Stream.stats st).epochs;
  ignore (Stream.drain st);
  Stream.shutdown st

let test_width_cap_flushes () =
  (* Each set has width 2; merging two would reach 4 > cap 2, so the
     second submit flushes the first epoch instead of exceeding it. *)
  let policy = Admission.Delta_threshold { delta = 1e9; max_width = Some 2 } in
  let clock, set_time = manual_clock () in
  let st = Stream.create ~domains:1 ~policy ~clock () in
  set_time 0.0;
  Stream.submit st (wn_job ~id:0 ~n:4 [ (0, 3); (1, 2) ]);
  check_int "first job fits under the cap" 0 (Stream.stats st).epochs;
  Stream.submit st (wn_job ~id:1 ~n:4 [ (0, 3); (1, 2) ]);
  check_int "second would exceed the cap: flushed" 1 (Stream.stats st).epochs;
  ignore (Stream.drain st);
  let s = Stream.stats st in
  Stream.shutdown st;
  check_int "two singleton epochs" 2 s.epochs;
  check_bool "merged width never exceeded the cap" true (s.max_epoch_width <= 2)

let test_disjoint_blocks_coalesce () =
  (* Members confined to disjoint aligned subtrees: merged width = max,
     and the epoch is counted disjoint. *)
  let clock, set_time = manual_clock () in
  let st =
    Stream.create ~domains:1 ~policy:(Admission.Quantum 10.0) ~clock ()
  in
  set_time 0.0;
  Stream.submit st (wn_job ~id:0 ~n:8 [ (0, 3); (1, 2) ]);
  Stream.submit st (wn_job ~id:1 ~n:8 [ (4, 7); (5, 6) ]);
  Stream.flush st;
  let outs = Stream.drain st in
  let s = Stream.stats st in
  Stream.shutdown st;
  check_int "one epoch" 1 s.epochs;
  check_int "both coalesced" 2 s.coalesced_jobs;
  check_int "disjoint epoch detected" 1 s.disjoint_epochs;
  check_int "merged width is the max, not the sum" 2 s.max_epoch_width;
  check_int "both outcomes delivered" 2 (List.length outs)

let test_leaves_boundary_commits () =
  (* A job for a different tree size cannot share the epoch's congestion
     arrays: it forces a commit even under a policy that never would. *)
  let clock, set_time = manual_clock () in
  let st =
    Stream.create ~domains:1 ~policy:(Admission.Quantum 1e9) ~clock ()
  in
  set_time 0.0;
  Stream.submit st (wn_job ~id:0 ~n:4 [ (0, 1) ]);
  Stream.submit st (wn_job ~id:1 ~n:16 [ (0, 1) ]);
  check_int "size change committed the first epoch" 1 (Stream.stats st).epochs;
  ignore (Stream.drain st);
  check_int "drain flushed the second" 2 (Stream.stats st).epochs;
  Stream.shutdown st

let test_crossing_jobs_counted () =
  let clock, _set_time = manual_clock () in
  let st = Stream.create ~domains:1 ~clock () in
  let crossing = set ~n:8 [ (0, 4); (2, 6) ] in
  Stream.submit st (Service.job ~id:0 ~algo:"csa" crossing);
  ignore (Stream.drain st);
  let s = Stream.stats st in
  Stream.shutdown st;
  check_int "crossing member counted" 1 s.crossing_jobs;
  check_int "wave layers recorded" 2 s.max_wave_layers

let test_shutdown_flushes () =
  let clock, _ = manual_clock () in
  let st =
    Stream.create ~domains:1 ~policy:(Admission.Quantum 1e9) ~clock ()
  in
  Stream.submit st (wn_job ~id:0 ~n:8 [ (0, 1) ]);
  Stream.shutdown st;
  let s = Stream.stats st in
  check_int "shutdown committed the open epoch" 1 s.epochs;
  check_int "and the job completed" 1 s.completed;
  check_raises_invalid "submit after shutdown" (fun () ->
      Stream.submit st (wn_job ~id:1 ~n:8 [ (0, 1) ]))

(* --- Service push delivery ------------------------------------------ *)

let test_on_outcome_push () =
  let m = Mutex.create () in
  let seen = ref [] in
  let t =
    Service.create ~domains:2
      ~on_outcome:(fun o ->
        Mutex.lock m;
        seen := o.job_id :: !seen;
        Mutex.unlock m)
      ()
  in
  for id = 0 to 9 do
    Service.submit t (wn_job ~id ~n:8 [ (0, 1) ])
  done;
  let drained = Service.drain t in
  check_int "push delivery: drain returns nothing" 0 (List.length drained);
  check_bool "every outcome went through the callback" true
    (List.sort compare !seen = List.init 10 Fun.id);
  Service.shutdown t

(* --- arrival generators ---------------------------------------------- *)

let nondecreasing (a : Arrivals.t) =
  let ok = ref true in
  Array.iteri
    (fun i t -> if i > 0 && t < a.times.(i - 1) then ok := false)
    a.times;
  !ok

let test_poisson_trace () =
  let rng = Cst_util.Prng.create 7 in
  let a = Arrivals.poisson rng ~rate:100.0 ~jobs:200 in
  check_int "job count" 200 (Arrivals.jobs a);
  check_bool "starts at zero" true (a.times.(0) = 0.0);
  check_bool "nondecreasing" true (nondecreasing a);
  check_bool "mean gap near 1/rate" true
    (let span = Arrivals.span a in
     span > 0.5 && span < 6.0);
  let b = Arrivals.poisson (Cst_util.Prng.create 7) ~rate:100.0 ~jobs:200 in
  check_bool "seed determines the trace" true (a.times = b.times)

let test_bursty_trace () =
  let rng = Cst_util.Prng.create 11 in
  let a = Arrivals.bursty rng ~burst:8 ~gap:0.01 ~jobs:100 () in
  check_int "job count" 100 (Arrivals.jobs a);
  check_bool "nondecreasing" true (nondecreasing a);
  (* back-to-back bursts: many zero gaps, but OFF periods exist *)
  let zero_gaps = ref 0 and off_gaps = ref 0 in
  Array.iteri
    (fun i t ->
      if i > 0 then
        if t = a.times.(i - 1) then incr zero_gaps
        else if t -. a.times.(i - 1) > 1e-4 then incr off_gaps)
    a.times;
  check_bool "bursts are back-to-back" true (!zero_gaps > 50);
  check_bool "OFF gaps separate bursts" true (!off_gaps >= 5);
  check_raises_invalid "burst must be positive" (fun () ->
      Arrivals.bursty rng ~burst:0 ~gap:0.01 ~jobs:10 ())

(* --- the consolidated stats renderer --------------------------------- *)

let test_stats_renderer () =
  let s =
    [
      Stats.section "alpha"
        [
          ("count", Stats.Int 3);
          ("rate", Stats.Float 1.5);
          ("ok", Stats.Bool true);
          ("name", Stats.String "a \"b\"");
        ];
      Stats.section "beta" [ ("x", Stats.Int 0) ];
    ]
  in
  let json = Stats.to_json s in
  check_bool "sections keyed by name" true
    (json
    = "{\"alpha\": {\"count\": 3, \"rate\": 1.5, \"ok\": true, \"name\": \
       \"a \\\"b\\\"\"}, \"beta\": {\"x\": 0}}");
  let txt = Format.asprintf "%a" Stats.pp s in
  check_bool "pp renders one line per section" true
    (txt = "alpha: count=3 rate=1.5 ok=true name=a \"b\"\nbeta: x=0");
  check_bool "throughput section carries jobs/sec" true
    (let sec = Stats.throughput ~jobs:10 ~failed:1 ~domains:2 ~elapsed_s:2.0 in
     List.assoc "jobs_per_sec" sec.fields = Stats.Float 5.0)

(* A job for a tree that cannot exist completes with the typed error;
   the stream sizes nothing from its count and keeps serving. *)
let test_bad_leaves_complete () =
  let clock, _ = manual_clock () in
  let st = Stream.create ~domains:1 ~clock () in
  let s = Helpers.set ~n:4 [ (0, 1) ] in
  Stream.submit st (Service.job ~leaves:(-4) ~id:0 ~algo:"csa" s);
  Stream.submit st
    (Service.job ~engine:Service.Message_passing ~leaves:6 ~id:1 ~algo:"csa" s);
  Stream.submit st (Service.job ~leaves:max_int ~id:2 ~algo:"csa" s);
  Stream.submit st (wn_job ~id:3 ~n:8 [ (0, 7) ]);
  let over = 2 * Service.max_leaves in
  (match Cst.Shape.of_string (Printf.sprintf "fat:%d,2" over) with
  | Ok shape -> Stream.submit st (Service.job ~shape ~id:4 ~algo:"csa" s)
  | Error e -> Alcotest.fail e);
  let outs = Stream.drain st in
  Stream.shutdown st;
  match List.map (fun ((o : Service.outcome), _) -> o.result) outs with
  | [ Error (Service.Bad_leaves -4); Error (Service.Bad_leaves 6);
      Error (Service.Bad_leaves l); Ok _; Error (Service.Bad_leaves f) ] ->
      check_int "max_int reported" max_int l;
      check_int "oversized shape reported" over f
  | _ ->
      Alcotest.fail
        "expected three Bad_leaves errors, a schedule, then a Bad_leaves"

(* A set over more PEs than the placement layer's profile passes
   through unobserved and unplaced; the stream stays usable, and the
   next, narrow set is observed and placed. *)
let test_auto_place_wide_set () =
  let clock, _ = manual_clock () in
  let placement = Cst_placement.Auto.create ~remap_cost:1.0 ~n:8 () in
  let st = Stream.create ~domains:1 ~clock ~placement () in
  Stream.submit st (wn_job ~id:0 ~n:64 [ (0, 63); (1, 2) ]);
  Stream.submit st (wn_job ~id:1 ~n:8 [ (0, 4); (1, 5); (2, 6); (3, 7) ]);
  let outs = Stream.drain st in
  let s = Stream.stats st in
  Stream.shutdown st;
  check_int "both complete" 2 (List.length outs);
  check_bool "both scheduled" true
    (List.for_all
       (fun ((o : Service.outcome), _) -> Result.is_ok o.result)
       outs);
  check_int "only the narrow job is placed" 1 s.placed_jobs

let test_stream_sections () =
  let clock, _ = manual_clock () in
  let st = Stream.create ~domains:1 ~clock () in
  Stream.submit st (wn_job ~id:0 ~n:8 [ (0, 1) ]);
  ignore (Stream.drain st);
  let json = Stats.to_json (Stream.sections st) in
  Stream.shutdown st;
  let contains haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
    scan 0
  in
  List.iter
    (fun needle ->
      check_bool ("STATS json mentions " ^ needle) true (contains json needle))
    [ "\"stream\""; "\"epochs\""; "\"total_power\""; "\"plan_cache\"" ]

(* --- merged width against an independent recount -------------------- *)

(* Binary, k-ary and fat trees, the fat uplinks carrying 1-3 circuits. *)
let random_tree_shape rng =
  let pick n = Cst_util.Prng.int rng n in
  match pick 3 with
  | 0 -> Cst.Shape.binary ~leaves:(4 lsl pick 4)
  | 1 ->
      if pick 2 = 0 then Cst.Shape.kary ~k:3 ~leaves:27
      else Cst.Shape.kary ~k:4 ~leaves:16
  | _ ->
      Result.get_ok
        (Cst.Shape.fat_tree
           ~level_sizes:[| 8 lsl pick 3; 2 lsl pick 2 |]
           ~capacities:[| 1 + pick 3; 1 + pick 3 |])

(* Every member of a never-committing epoch shares one tree, so the
   epoch's merged width is the width of the union of the members; a
   width-capped stream opens no epoch wider than its cap unless one job
   alone is wider. *)
let test_epoch_width_recount =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40
       ~name:"epoch width = recount of the members' footprints"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let rng = Cst_util.Prng.create seed in
         let shape = random_tree_shape rng in
         let topo = Cst.Topology.of_shape shape in
         let n = Cst.Shape.leaves shape in
         let sets =
           List.init
             (2 + Cst_util.Prng.int rng 5)
             (fun _ ->
               Cst_workloads.Gen_wn.uniform rng ~n
                 ~density:(0.2 +. Cst_util.Prng.float rng 0.8))
         in
         let run policy =
           let clock, _ = manual_clock () in
           let st = Stream.create ~domains:1 ~policy ~clock () in
           List.iteri
             (fun id s -> Stream.submit st (Service.job ~shape ~id ~algo:"csa" s))
             sets;
           ignore (Stream.drain st);
           let s = Stream.stats st in
           Stream.shutdown st;
           s.max_epoch_width
         in
         let merged = recount_width topo sets in
         let widest_job =
           List.fold_left (fun m s -> max m (recount_width topo [ s ])) 0 sets
         in
         let cap = 1 + Cst_util.Prng.int rng (max 1 merged) in
         run (Admission.Quantum 1e9) = merged
         && run
              (Admission.Delta_threshold { delta = 1e9; max_width = Some cap })
            <= max cap widest_job))

let suite =
  [
    case "admission: immediate" test_immediate_policy;
    case "admission: quantum boundary" test_quantum_boundary;
    case "admission: delta boundary" test_delta_boundary;
    case "admission: policy strings" test_policy_strings;
    test_stream_equals_batch;
    case "stream: immediate = one epoch per job" test_immediate_epochs;
    case "stream: quantum coalesces" test_quantum_coalesces;
    case "stream: delta ski rental" test_delta_ski_rental;
    case "stream: width cap flushes" test_width_cap_flushes;
    case "stream: disjoint blocks coalesce" test_disjoint_blocks_coalesce;
    case "stream: tree-size boundary commits" test_leaves_boundary_commits;
    case "stream: crossing jobs counted" test_crossing_jobs_counted;
    case "stream: shutdown flushes" test_shutdown_flushes;
    case "stream: bad leaf counts complete" test_bad_leaves_complete;
    case "stream: auto-place passes a wide set" test_auto_place_wide_set;
    case "service: on_outcome push" test_on_outcome_push;
    case "arrivals: poisson" test_poisson_trace;
    case "arrivals: bursty" test_bursty_trace;
    case "stats: renderer" test_stats_renderer;
    case "stats: stream sections" test_stream_sections;
    test_epoch_width_recount;
  ]
