open Helpers
module Service = Cst_service.Service

(* A random mixed batch: well-nested, crossing and mixed-orientation sets
   across every registry algorithm and both engines, including jobs that
   must fail (unknown algorithms, capability mismatches, oversized
   leaves overrides that crash Topology.create). *)

let algo_names = "not-an-algo" :: Cst_baselines.Registry.names

let random_job rng i =
  let n = 1 lsl (2 + Cst_util.Prng.int rng 5) in
  let set =
    match Cst_util.Prng.int rng 3 with
    | 0 ->
        let density = 0.1 +. Cst_util.Prng.float rng 0.9 in
        Cst_workloads.Gen_wn.uniform rng ~n ~density
    | 1 ->
        Cst_workloads.Gen_arbitrary.random_pairs rng ~n
          ~pairs:(max 1 (n / 4))
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
  let leaves =
    (* Roughly one job in eight carries an invalid override: either too
       small (Too_large) or not a power of two (Topology.create raises,
       exercising the Crashed path). *)
    match Cst_util.Prng.int rng 8 with
    | 0 -> Some 2
    | 1 -> Some 100
    | _ -> None
  in
  Service.job ~engine ?leaves ~id:i ~algo set

let random_batch seed count =
  let rng = Cst_util.Prng.create seed in
  List.init count (random_job rng)

(* Tentpole property: the outcome list is a function of the jobs only,
   never of the domain count. *)
let test_parallel_equals_sequential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"domains 1 = domains N, byte for byte"
       QCheck.(pair (int_bound 1_000_000) (int_range 2 8))
       (fun (seed, domains) ->
         let jobs = random_batch seed 10 in
         let seq = List.map Service.outcome_to_string
             (Service.run ~domains:1 jobs)
         and par = List.map Service.outcome_to_string
             (Service.run ~domains jobs)
         in
         seq = par))

let test_ids_and_order () =
  let jobs = random_batch 42 30 in
  let outcomes = Service.run ~domains:4 jobs in
  check_int "one outcome per job" 30 (List.length outcomes);
  let ids = List.map (fun (o : Service.outcome) -> o.job_id) outcomes in
  check_true "sorted by job id" (List.sort compare ids = ids);
  check_true "every id present"
    (List.sort compare ids = List.init 30 Fun.id)

(* A set adopted without validation, with an endpoint beyond its PE
   count: the schedulers index past their tables, and the exception
   escapes them. *)
let crashing_set () =
  Cst_comm.Comm_set.unsafe_of_sorted ~n:8
    [| Cst_comm.Comm.make ~src:1 ~dst:20 |]

let test_errors_on_right_id () =
  let ok_job = Service.job ~id:0 ~algo:"csa" (set ~n:8 [ (0, 7); (1, 2) ]) in
  let bad_algo = Service.job ~id:1 ~algo:"nope" (set ~n:8 [ (1, 2) ]) in
  let too_large = Service.job ~leaves:2 ~id:2 ~algo:"csa" (set ~n:8 [ (1, 7) ]) in
  let crasher = Service.job ~id:3 ~algo:"csa" (crashing_set ()) in
  match Service.run ~domains:2 [ crasher; bad_algo; too_large; ok_job ] with
  | [ o0; o1; o2; o3 ] ->
      check_true "job 0 ok" (Result.is_ok o0.result);
      (match o1.result with
      | Error (Service.Unknown_algo "nope") -> ()
      | _ -> Alcotest.fail "job 1 should be Unknown_algo");
      (match o2.result with
      | Error (Service.Too_large { n = 8; leaves = 2 }) -> ()
      | _ -> Alcotest.fail "job 2 should be Too_large");
      (match o3.result with
      | Error (Service.Crashed _) -> ()
      | _ -> Alcotest.fail "job 3 should be Crashed")
  | os -> Alcotest.fail (Printf.sprintf "expected 4 outcomes, got %d" (List.length os))

(* A leaf count no tree has is a typed error on every engine, answered
   before any topology is built — including counts the log could not
   address, however the tree is spelled, and counts too small for the
   set. *)
let test_bad_leaves () =
  let s = set ~n:4 [ (0, 1); (2, 3) ] in
  let rejected label ~count job =
    List.iter
      (fun engine ->
        match Service.run_job (job ~engine) with
        | Error (Service.Bad_leaves l) -> check_int "count reported" count l
        | Ok _ -> Alcotest.failf "%s accepted" label
        | Error e -> Alcotest.failf "%s: %a" label Service.pp_error e)
      [ Service.Spec; Service.Message_passing; Service.Segmented ]
  in
  List.iter
    (fun leaves ->
      rejected (Printf.sprintf "%d leaves" leaves) ~count:leaves
        (fun ~engine -> Service.job ~engine ~leaves ~id:0 ~algo:"csa" s))
    [ -4; 0; 1; 6; 100; 2 * Service.max_leaves; max_int ];
  let shape str =
    match Cst.Shape.of_string str with
    | Ok sh -> sh
    | Error e -> Alcotest.failf "shape %s: %s" str e
  in
  let over = 2 * Service.max_leaves in
  List.iter
    (fun spelling ->
      rejected spelling ~count:over (fun ~engine ->
          Service.job ~engine ~shape:(shape spelling) ~id:0 ~algo:"csa" s))
    [
      Printf.sprintf "bin:%d" over;
      Printf.sprintf "kary:2:%d" over;
      Printf.sprintf "fat:%d,2" over;
    ];
  check_true "the largest tree is accepted"
    (Service.check_leaves
       (Service.job ~leaves:Service.max_leaves ~id:0 ~algo:"csa" s)
    = Ok Service.max_leaves);
  check_true "the largest shaped tree is accepted"
    (Service.check_leaves
       (Service.job
          ~shape:(shape (Printf.sprintf "fat:%d,2" Service.max_leaves))
          ~id:0 ~algo:"csa" s)
    = Ok Service.max_leaves);
  check_true "a valid count still reports Too_large"
    (match Service.run_job (Service.job ~leaves:2 ~id:0 ~algo:"csa" s) with
    | Error (Service.Too_large { n = 4; leaves = 2 }) -> true
    | _ -> false)

(* A crashing job must not poison the pool: workers survive and keep
   processing later submissions through the streaming API. *)
let test_crash_does_not_poison_pool () =
  let t = Service.create ~domains:2 ~queue_capacity:4 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      for i = 0 to 9 do
        Service.submit t (Service.job ~id:i ~algo:"csa" (crashing_set ()))
      done;
      let first = Service.drain t in
      check_int "all crashers answered" 10 (List.length first);
      List.iter
        (fun (o : Service.outcome) ->
          match o.result with
          | Error (Service.Crashed _) -> ()
          | _ -> Alcotest.fail "expected Crashed")
        first;
      Service.submit t (Service.job ~id:99 ~algo:"csa" (set ~n:8 [ (0, 7) ]));
      match Service.drain t with
      | [ o ] ->
          check_int "later job answered" 99 o.job_id;
          check_true "and succeeded" (Result.is_ok o.result)
      | os ->
          Alcotest.fail
            (Printf.sprintf "expected 1 outcome, got %d" (List.length os)))

(* Backpressure: a tiny channel still completes a large batch. *)
let test_backpressure_small_queue () =
  let jobs = random_batch 7 40 in
  let outcomes = Service.run ~domains:3 ~queue_capacity:2 jobs in
  check_int "all jobs complete through a capacity-2 channel" 40
    (List.length outcomes)

let test_submit_after_shutdown () =
  let t = Service.create ~domains:1 () in
  Service.shutdown t;
  Service.shutdown t;
  (* idempotent *)
  check_raises_invalid "submit after shutdown" (fun () ->
      Service.submit t (Service.job ~id:0 ~algo:"csa" (set ~n:4 [ (0, 1) ])))

(* Worker domains outlive their pool: a one-domain pool started after
   another shut down runs its jobs on the domain that pool parked, and a
   pool over more domains than stay parked still answers every job. *)
let test_pools_reuse_parked_domains () =
  let domains_used ~domains =
    let seen = ref [] and m = Mutex.create () in
    let record (_ : Service.outcome) =
      Mutex.lock m;
      seen := (Domain.self () :> int) :: !seen;
      Mutex.unlock m
    in
    let t = Service.create ~domains ~cache:false ~on_outcome:record () in
    for i = 0 to 7 do
      Service.submit t (Service.job ~id:i ~algo:"csa" (set ~n:8 [ (0, 7) ]))
    done;
    ignore (Service.drain t);
    Service.shutdown t;
    check_int "every job answered" 8 (List.length !seen);
    List.sort_uniq compare !seen
  in
  let first = domains_used ~domains:1 in
  check_true "the next pool runs on the parked domain"
    (domains_used ~domains:1 = first);
  ignore (domains_used ~domains:(Domain.recommended_domain_count () + 2))

(* The message-passing engine realizes the same schedule as the spec
   scheduler: equal digests on well-nested sets. *)
let test_engine_digest_equals_spec =
  prop "engine digest = spec digest (csa)" ~count:50 (fun params ->
      let s = set_of_params params in
      let spec = Service.run_job (Service.job ~id:0 ~algo:"csa" s) in
      let eng =
        Service.run_job
          (Service.job ~engine:Service.Message_passing ~id:0 ~algo:"csa" s)
      in
      match (spec, eng) with
      | Ok a, Ok b -> a.digest = b.digest
      | _ -> false)

(* The segment-parallel path is outcome-identical to the sequential
   engine — digest, rounds, cycles, messages, power — with or without
   the cache. *)
let test_segmented_equals_engine =
  prop "segmented outcome = engine outcome (csa)" ~count:50 (fun params ->
      let s = set_of_params params in
      let outcome engine cache =
        Service.outcome_to_string
          {
            job_id = 0;
            result =
              (let j = Service.job ~engine ~id:0 ~algo:"csa" s in
               if cache then
                 let pc = Cst_service.Plan_cache.create ~domains:1 () in
                 Service.run_job ~cache:(pc, 0) j
               else Service.run_job j);
          }
      in
      let eng = outcome Service.Message_passing false in
      eng = outcome Service.Segmented false
      && eng = outcome Service.Segmented true)

(* The block-hit path.  A set run a second time on the same plan cache
   under [Segmented] is served entirely from relocated block logs; that
   outcome must equal the sequential engine's in everything the service
   reports: the canonical line, every round of the schedule (sources,
   dests and deliveries), the config snapshots streamed from its log and
   the power record — every total, every maximum and the three
   per-switch arrays. *)
let same_served (e : Service.job_result) (h : Service.job_result) =
  let line r = Service.outcome_to_string { job_id = 0; result = Ok r } in
  match (e.detail, h.detail) with
  | Sched a, Sched b ->
      line e = line h && a.rounds = b.rounds
      && snapshots a = snapshots b
      && e.power = h.power
  | _ -> false

let engine_result s =
  Service.run_job
    (Service.job ~engine:Service.Message_passing ~id:0 ~algo:"csa" s)

let segmented_on pc s =
  Service.run_job ~cache:(pc, 0)
    (Service.job ~engine:Service.Segmented ~id:0 ~algo:"csa" s)

let test_segmented_hits_equal_engine =
  prop "segmented block hits = engine (rounds, power arrays)" ~count:50
    (fun (seed, n_exp, density) ->
      (* tiled copies give multi-block sets; a single copy keeps the
         generator's own block structure *)
      let s =
        Cst_workloads.Gen_wn.tile
          ~copies:(1 lsl (seed mod 3))
          (set_of_params (seed, max 2 (n_exp - 1), density))
      in
      let pc = Cst_service.Plan_cache.create ~domains:1 () in
      ignore (segmented_on pc s);
      match (engine_result s, segmented_on pc s) with
      | Ok e, Ok h ->
          h.block_hits = h.blocks
          && (h.blocks = 0 || h.cache = Service.Hit)
          && same_served e h
      | _ -> false)

(* Some blocks hit, one misses: the cache holds two of the set's three
   block shapes (at other offsets) from an earlier job. *)
let test_segmented_partial_hits_equal_engine () =
  let pc = Cst_service.Plan_cache.create ~domains:1 () in
  let warm = set ~n:64 [ (0, 7); (1, 2); (3, 6); (16, 19); (17, 18) ] in
  let mixed =
    set ~n:64
      [ (8, 15); (9, 10); (11, 14); (32, 35); (33, 34); (40, 47); (41, 46);
        (42, 45) ]
  in
  ignore (segmented_on pc warm);
  match (engine_result mixed, segmented_on pc mixed) with
  | Ok e, Ok h ->
      check_int "three blocks" 3 h.blocks;
      check_int "two served from the cache" 2 h.block_hits;
      check_true "partial hits stay Miss" (h.cache = Service.Miss);
      check_true "equal to the engine in rounds and power" (same_served e h)
  | _ -> Alcotest.fail "both runs should succeed"

(* Capability dispatch: a crossing set is wave-covered for the csa,
   scheduled directly by crossing-tolerant baselines and rejected with
   the typed violation otherwise. *)
let test_capability_dispatch () =
  let crossing = set ~n:8 [ (0, 2); (1, 3) ] in
  (match Service.run_job (Service.job ~id:0 ~algo:"csa" crossing) with
  | Ok r -> check_true "csa wave-covers crossing sets" (r.waves >= 2)
  | Error _ -> Alcotest.fail "csa should cover a crossing set");
  (match Service.run_job (Service.job ~id:0 ~algo:"greedy" crossing) with
  | Ok r -> check_int "greedy schedules it directly" 1 r.waves
  | Error _ -> Alcotest.fail "greedy supports arbitrary sets");
  (match Service.run_job (Service.job ~id:0 ~algo:"roy-id" crossing) with
  | Error (Service.Not_well_nested _) -> ()
  | _ -> Alcotest.fail "roy-id should reject a crossing set");
  let mixed = set ~n:8 [ (0, 1); (3, 2) ] in
  (match Service.run_job (Service.job ~id:0 ~algo:"naive" mixed) with
  | Error (Service.Unsupported _) -> ()
  | _ -> Alcotest.fail "naive should reject mixed orientation");
  match
    Service.run_job
      (Service.job ~engine:Service.Message_passing ~id:0 ~algo:"naive"
         (set ~n:4 [ (0, 1) ]))
  with
  | Error (Service.Unsupported _) -> ()
  | _ -> Alcotest.fail "naive has no message-passing engine"

(* --- the plan cache ------------------------------------------------- *)

module Plan_cache = Cst_service.Plan_cache

(* A 90%-repetitive trace: a few base shapes replayed under aligned
   translations, with a fresh unique shape every few jobs. *)
let translated_trace rng ~jobs ~engine =
  let bases =
    [|
      set ~n:8 [ (0, 7); (1, 2); (3, 6) ];
      set ~n:8 [ (1, 6); (2, 5) ];
      Cst_workloads.Gen_wn.uniform rng ~n:8 ~density:0.8;
    |]
  in
  List.init jobs (fun i ->
      let s =
        if i mod 10 = 9 then
          (* unique shape: never repeats, so it can only miss *)
          Cst_workloads.Gen_wn.uniform rng ~n:64 ~density:0.3
        else
          (* Aligned translate of a base shape: the structural signature
             is unchanged (any base spans at most 8 PEs, so its
             alignment divides 8), only the placement moves. *)
          let b = bases.(Cst_util.Prng.int rng (Array.length bases)) in
          let by = 8 * Cst_util.Prng.int rng 8 in
          Cst_workloads.Gen_wn.translate ~by
            (Cst_comm.Comm_set.create_exn ~n:64
               (Array.to_list (Cst_comm.Comm_set.comms b)))
      in
      Service.job ~engine ~leaves:64 ~id:i ~algo:"csa" s)

(* Cached and uncached runs must be byte-identical, for any domain
   count: the cache only changes how an outcome is produced. *)
let test_cached_equals_uncached =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:25
       ~name:"cached = uncached, byte for byte, any domain count"
       QCheck.(triple (int_bound 1_000_000) (int_range 1 4) (int_range 0 2))
       (fun (seed, domains, engine) ->
         let rng = Cst_util.Prng.create seed in
         let engine =
           match engine with
           | 0 -> Service.Spec
           | 1 -> Service.Message_passing
           | _ -> Service.Segmented
         in
         let jobs = translated_trace rng ~jobs:30 ~engine in
         let cached =
           List.map Service.outcome_to_string (Service.run ~domains jobs)
         and uncached =
           List.map Service.outcome_to_string
             (Service.run ~domains:1 ~cache:false jobs)
         in
         cached = uncached))

let test_cache_hit_rate () =
  let rng = Cst_util.Prng.create 11 in
  let jobs = translated_trace rng ~jobs:100 ~engine:Service.Spec in
  let t = Service.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      List.iter (Service.submit t) jobs;
      let outcomes = Service.drain t in
      check_int "all jobs answered" 100 (List.length outcomes);
      match Service.cache_stats t with
      | None -> Alcotest.fail "cache enabled by default"
      | Some s ->
          check_int "every cacheable job consulted the cache" 100
            (s.hits + s.misses);
          check_true
            (Printf.sprintf "repetitive trace mostly hits (%d/100)" s.hits)
            (s.hits >= 70);
          check_int "per-domain counters sum to the totals"
            (s.hits + s.misses)
            (Array.fold_left
               (fun acc (h, m, _) -> acc + h + m)
               0 s.per_domain);
          (* Hit or miss, outcomes match the uncached run. *)
          let uncached = Service.run ~domains:1 ~cache:false jobs in
          check_true "outcomes equal uncached"
            (List.map Service.outcome_to_string outcomes
            = List.map Service.outcome_to_string uncached))

let test_cache_disabled () =
  let t = Service.create ~domains:1 ~cache:false () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      Service.submit t (Service.job ~id:0 ~algo:"csa" (set ~n:8 [ (0, 7) ]));
      ignore (Service.drain t);
      check_true "no stats without a cache" (Service.cache_stats t = None))

(* Waves and crossing sets never touch the cache. *)
let test_uncacheable_paths_bypass () =
  let t = Service.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      let crossing = set ~n:8 [ (0, 2); (1, 3) ] in
      Service.submit t (Service.job ~id:0 ~algo:"csa" crossing);
      Service.submit t (Service.job ~id:1 ~algo:"greedy" crossing);
      (match Service.drain t with
      | [ o0; o1 ] ->
          let status (o : Service.outcome) =
            match o.result with
            | Ok r -> r.cache
            | Error _ -> Alcotest.fail "jobs should succeed"
          in
          check_true "wave cover bypasses" (status o0 = Service.Bypass);
          check_true "crossing direct run bypasses"
            (status o1 = Service.Bypass)
      | os ->
          Alcotest.fail
            (Printf.sprintf "expected 2 outcomes, got %d" (List.length os)));
      match Service.cache_stats t with
      | Some s -> check_int "no lookups recorded" 0 (s.hits + s.misses)
      | None -> Alcotest.fail "cache is on")

(* Without a cache every path reports [Bypass], including the
   well-nested jobs a cached pool would look up. *)
let test_cacheless_pool_bypasses () =
  let t = Service.create ~domains:1 ~cache:false () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      let s = set ~n:16 [ (0, 7); (1, 2); (8, 11); (9, 10) ] in
      let engines = [ Service.Spec; Service.Message_passing; Service.Segmented ] in
      List.iteri
        (fun id engine ->
          Service.submit t (Service.job ~engine ~id ~algo:"csa" s))
        engines;
      let outcomes = Service.drain t in
      check_int "three outcomes" 3 (List.length outcomes);
      List.iter
        (fun (o : Service.outcome) ->
          match o.result with
          | Ok r ->
              check_true
                (Printf.sprintf "job %d reports Bypass" o.job_id)
                (r.cache = Service.Bypass)
          | Error e -> Alcotest.failf "job %d: %a" o.job_id Service.pp_error e)
        outcomes)

(* A crossing set on the message-passing engine is rejected with the
   typed violation before any plan is looked up or frozen. *)
let test_engine_crossing_skips_cache () =
  let t = Service.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      let crossing = set ~n:8 [ (0, 2); (1, 3) ] in
      Service.submit t
        (Service.job ~engine:Service.Message_passing ~id:0 ~algo:"csa"
           crossing);
      (match Service.drain t with
      | [ { result = Error (Service.Not_well_nested _); _ } ] -> ()
      | _ -> Alcotest.fail "expected one Not_well_nested outcome");
      match Service.cache_stats t with
      | Some s -> check_int "no lookups recorded" 0 (s.hits + s.misses)
      | None -> Alcotest.fail "cache is on")

(* Segmented jobs consult the cache once per block: an identical
   resubmission replays every block (reported [Hit]), a set sharing only
   some block shapes replays those and schedules the rest ([Miss]). *)
let test_segmented_block_cache () =
  let t = Service.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      let a = set ~n:32 [ (0, 3); (1, 2); (8, 11); (16, 23); (17, 18) ] in
      (* shares the [(0,3);(1,2)] block shape with [a]; the width-2
         block is a shape the pool has never seen *)
      let b = set ~n:32 [ (0, 3); (1, 2); (24, 25) ] in
      let seg id s = Service.job ~engine:Service.Segmented ~id ~algo:"csa" s in
      List.iter (Service.submit t) [ seg 0 a; seg 1 a; seg 2 b ];
      match Service.drain t with
      | [ o0; o1; o2 ] ->
          let r i (o : Service.outcome) =
            match o.result with
            | Ok r -> r
            | Error _ -> Alcotest.fail (Printf.sprintf "job %d failed" i)
          in
          let r0 = r 0 o0 and r1 = r 1 o1 and r2 = r 2 o2 in
          check_int "three blocks" 3 r0.blocks;
          check_int "cold pool: no block hits" 0 r0.block_hits;
          check_true "cold pool: Miss" (r0.cache = Service.Miss);
          check_int "resubmission replays every block" r1.blocks r1.block_hits;
          check_true "all blocks hit: Hit" (r1.cache = Service.Hit);
          check_true "replayed outcome identical"
            (Service.outcome_to_string { job_id = 0; result = Ok r0 }
            = Service.outcome_to_string { job_id = 0; result = Ok r1 });
          check_int "two blocks" 2 r2.blocks;
          check_int "shared shape replays, fresh shape schedules" 1
            r2.block_hits;
          check_true "partial hits stay Miss" (r2.cache = Service.Miss)
      | os ->
          Alcotest.fail
            (Printf.sprintf "expected 3 outcomes, got %d" (List.length os)))

(* Block plans and whole-set engine plans share one key namespace (both
   are frozen at the full tree size): a whole-set engine run pre-warms
   the segmented path, and a single-block segmented run pre-warms the
   whole-set engine path. *)
let test_segmented_interop_with_engine_plans () =
  let t = Service.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Service.shutdown t)
    (fun () ->
      let s = set ~n:8 [ (0, 7); (1, 2) ] in
      (* (2,5) straddles the midline, so [u] is one block spanning the
         whole tree — its block plan IS a whole-set plan *)
      let u = set ~n:8 [ (2, 5); (3, 4) ] in
      List.iter (Service.submit t)
        [
          Service.job ~engine:Service.Message_passing ~id:0 ~algo:"csa" s;
          Service.job ~engine:Service.Segmented ~id:1 ~algo:"csa" s;
          Service.job ~engine:Service.Segmented ~id:2 ~algo:"csa" u;
          Service.job ~engine:Service.Message_passing ~id:3 ~algo:"csa" u;
        ];
      match Service.drain t with
      | [ o0; o1; o2; o3 ] ->
          let r i (o : Service.outcome) =
            match o.result with
            | Ok r -> r
            | Error _ -> Alcotest.fail (Printf.sprintf "job %d failed" i)
          in
          let r0 = r 0 o0 and r1 = r 1 o1 and r2 = r 2 o2 and r3 = r 3 o3 in
          check_int "blocks reported only on the segmented path" 0 r0.blocks;
          check_true "whole-set run schedules fresh" (r0.cache = Service.Miss);
          check_int "one block" 1 r1.blocks;
          check_int "served by the whole-set engine plan" 1 r1.block_hits;
          check_true "digest unchanged" (r0.digest = r1.digest);
          check_true "block plan pre-warms the whole-set engine path"
            (r2.cache = Service.Miss && r3.cache = Service.Hit);
          check_true "digest unchanged (reverse)" (r2.digest = r3.digest)
      | os ->
          Alcotest.fail
            (Printf.sprintf "expected 4 outcomes, got %d" (List.length os)))

(* Unit tests against the cache itself: LRU eviction honours the byte
   budget, and a duplicate insert keeps the resident entry. *)
let plan_for ~id =
  let s = set ~n:8 [ (id mod 4, 4 + (id mod 4)) ] in
  let topo = Cst.Topology.create ~leaves:8 in
  (s, Result.get_ok (Padr.Plan.compile topo s))

let key_of ~id s : Plan_cache.key =
  {
    algo = Printf.sprintf "a%d" id;
    engine = false;
    shape = Cst.Shape.binary ~leaves:8;
    base = 0;
    canon = (Cst.Canon.place s).canon;
  }

let test_plan_cache_lru () =
  let _, p0 = plan_for ~id:0 in
  let budget = (3 * Padr.Plan.bytes p0) + (Padr.Plan.bytes p0 / 2) in
  let pc = Plan_cache.create ~max_bytes:budget ~domains:1 () in
  let keys =
    Array.init 5 (fun id ->
        let s, p = plan_for ~id in
        let k = key_of ~id s in
        Plan_cache.add pc ~worker:0 k p;
        k)
  in
  let s = Plan_cache.stats pc in
  check_true "byte budget held" (s.bytes <= budget);
  check_int "two oldest evicted" 2 s.evictions;
  check_int "three resident" 3 s.entries;
  check_true "oldest entry gone"
    (Plan_cache.find pc ~worker:0 keys.(0) = None);
  check_true "newest entry resident"
    (Plan_cache.find pc ~worker:0 keys.(4) <> None);
  (* Touch an old survivor, insert one more: the untouched one goes. *)
  ignore (Plan_cache.find pc ~worker:0 keys.(2));
  let s5, p5 = plan_for ~id:5 in
  Plan_cache.add pc ~worker:0 (key_of ~id:5 s5) p5;
  check_true "recently used survives"
    (Plan_cache.find pc ~worker:0 keys.(2) <> None);
  check_true "least recently used evicted"
    (Plan_cache.find pc ~worker:0 keys.(3) = None)

let test_plan_cache_duplicate_add () =
  let pc = Plan_cache.create ~domains:2 () in
  let s, p = plan_for ~id:0 in
  let k = key_of ~id:0 s in
  Plan_cache.add pc ~worker:0 k p;
  let resident =
    match Plan_cache.find pc ~worker:0 k with
    | Some r -> r
    | None -> Alcotest.fail "inserted plan must be found"
  in
  (* A second worker racing the same compile drops its duplicate. *)
  let _, p' = plan_for ~id:0 in
  Plan_cache.add pc ~worker:1 k p';
  (match Plan_cache.find pc ~worker:1 k with
  | Some r -> check_true "first insert kept" (r == resident)
  | None -> Alcotest.fail "entry vanished");
  let s = Plan_cache.stats pc in
  check_int "one entry" 1 s.entries;
  check_int "no evictions" 0 s.evictions

let test_oversized_plan_not_admitted () =
  let pc = Plan_cache.create ~max_bytes:8 ~domains:1 () in
  let s, p = plan_for ~id:0 in
  let k = key_of ~id:0 s in
  Plan_cache.add pc ~worker:0 k p;
  let st = Plan_cache.stats pc in
  check_int "nothing resident" 0 st.entries;
  check_int "nothing counted as evicted" 0 st.evictions

(* A full onion keeps every switch of its path stack live for all its
   rounds.  Copying each round's live configurations into the schedule
   cost O(rounds x live) — ~194 M words per job here — so the job's
   allocation must stay near O(events + tree). *)
let test_full_onion_allocation () =
  let s = Cst_workloads.Gen_wn.onion ~n:4096 ~width:2048 in
  List.iter
    (fun engine ->
      let job = Service.job ~engine ~id:0 ~algo:"csa" s in
      let w0 = Gc.minor_words () in
      let r = Service.run_job job in
      let words = Gc.minor_words () -. w0 in
      match r with
      | Error e -> Alcotest.failf "onion job failed: %a" Service.pp_error e
      | Ok r ->
          check_int "rounds" 2048 r.rounds;
          check_true
            (Printf.sprintf "%.1f M words allocated (bound 32 M)" (words /. 1e6))
            (words < 32e6))
    [ Service.Message_passing; Service.Segmented ]

let suite =
  [
    test_parallel_equals_sequential;
    case "ids and order" test_ids_and_order;
    case "errors on the right id" test_errors_on_right_id;
    case "crash does not poison the pool" test_crash_does_not_poison_pool;
    case "bad leaf counts are typed errors" test_bad_leaves;
    case "backpressure with a tiny queue" test_backpressure_small_queue;
    case "submit after shutdown" test_submit_after_shutdown;
    test_engine_digest_equals_spec;
    test_segmented_equals_engine;
    test_segmented_hits_equal_engine;
    case "segmented partial block hits = engine"
      test_segmented_partial_hits_equal_engine;
    case "capability dispatch" test_capability_dispatch;
    test_cached_equals_uncached;
    case "segmented jobs cache per-block plans" test_segmented_block_cache;
    case "block plans interoperate with whole-set engine plans"
      test_segmented_interop_with_engine_plans;
    case "cache hit rate on a repetitive trace" test_cache_hit_rate;
    case "cache disabled" test_cache_disabled;
    case "uncacheable paths bypass" test_uncacheable_paths_bypass;
    case "plan cache LRU eviction" test_plan_cache_lru;
    case "plan cache duplicate insert" test_plan_cache_duplicate_add;
    case "oversized plan not admitted" test_oversized_plan_not_admitted;
    case "4096-PE full onion allocates O(events)" test_full_onion_allocation;
    case "cache-less pool bypasses every engine" test_cacheless_pool_bypasses;
    case "engine crossing job skips the cache" test_engine_crossing_skips_cache;
    case "pools reuse parked domains" test_pools_reuse_parked_domains;
  ]
