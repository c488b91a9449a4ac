(* One timed run of a workload: set-up, then the measured job list, in a
   fresh process with tracing off.

   The closed loops call [Service.run_job], the per-job function every
   pool worker runs, from the driver's own domain, one job at a time,
   with a plan cache (and, on the recurring workload, a plan store)
   attached; latency is the process CPU time of the call.  The open loop
   replays Poisson due times through [Stream] and its pool of [domains]
   worker domains; latency is the wall time from due time to epoch commit
   plus the job's own service on the CPU clock.  Timings read the process
   CPU clock ([Meter.cpu]), which does not run while the host gives the
   CPU to other guests; [pool_loop] gives the wall-clock figures of a
   closed loop on the pool as per-layer metrics.  Every outcome, the
   set-up jobs' included, is checked against the reference table. *)

module Service = Cst_service.Service
module Stream = Cst_service.Stream
module Plan_cache = Cst_service.Plan_cache

(* Worker domains of the stream.  More than one makes every minor
   collection a meeting of domains that share two CPUs, and a job took
   about three times the CPU (perfbench/NOTES.md). *)
let domains = 1

(* The pool [pool_loop] measures: two worker domains, two jobs in flight,
   as [Service.create] gives users on a two-CPU host. *)
let pool_domains = 2

(* An open-loop job still running this long after the last due time
   counts as failed. *)
let drain_deadline_s = 5.0

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** the first few reasons *)
  invalid : string option;  (** why the run must not be counted *)
  e2e : (string * float) list;  (** empty on the closed-loop pool run *)
  layer : (string * float) list;  (** empty on the in-process closed loops *)
  latency_ms : float array;  (** per measured job, in list order *)
  service_ms : float array;
      (** per measured job: wall time on the pool (the open loop excludes
          the epoch wait); empty in process *)
}

let to_json r =
  Meter.Obj
    [
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("failures", Arr (List.map (fun s -> Meter.Str s) r.failures));
      ("invalid", match r.invalid with None -> Meter.Str "" | Some s -> Str s);
      ("e2e", Meter.metrics r.e2e);
      ("layer", Meter.metrics r.layer);
      ("latency_ms", Meter.nums r.latency_ms);
      ("service_ms", Meter.nums r.service_ms);
    ]

(* What scoring needs of one outcome.  Runs keep this, not the result:
   a result holds its power ledger and details, which would count in the
   peak memory. *)
type scored = {
  id : int;
  verdict : string option;  (** why the outcome fails the gate *)
  rounds : int;
  power : int;
  blocks : int;
  block_hits : int;
}

let scored refs id (r : (Service.job_result, Service.error) Stdlib.result) =
  let verdict = Refs.check refs.(id) r in
  match r with
  | Ok r ->
      { id; verdict; rounds = r.rounds;
        power = r.power.total_connects + r.power.total_writes;
        blocks = r.blocks; block_hits = r.block_hits }
  | Error _ -> { id; verdict; rounds = 0; power = 0; blocks = 0; block_hits = 0 }

(* Tallies the gate's verdicts and averages the exact counts over the
   measured jobs. *)
let score (w : Work.t) (outcomes : scored list) ~extra_failures =
  let t = Refs.tally () in
  let first = Work.first w in
  let rounds = ref 0 and power = ref 0 and blocks = ref 0 and block_hits = ref 0 in
  List.iter
    (fun s ->
      Option.iter (Refs.fail t s.id) s.verdict;
      if s.id >= first then begin
        rounds := !rounds + s.rounds;
        power := !power + s.power;
        blocks := !blocks + s.blocks;
        block_hits := !block_hits + s.block_hits
      end)
    outcomes;
  List.iter (fun (id, why) -> Refs.fail t id why) extra_failures;
  let n = float_of_int (Array.length w.measured) in
  ( t,
    float_of_int !rounds /. n,
    float_of_int !power /. n,
    if !blocks = 0 then 0.0 else float_of_int !block_hits /. float_of_int !blocks )

let hit_ratio (before : Plan_cache.stats option) after =
  match (before, after) with
  | Some (b : Plan_cache.stats), Some (a : Plan_cache.stats) ->
      let hits = a.hits - b.hits and misses = a.misses - b.misses in
      if hits + misses = 0 then 0.0
      else float_of_int hits /. float_of_int (hits + misses)
  | _ -> 0.0

let fault_ins (stats : Plan_cache.stats option) =
  match stats with
  | Some { store = Some st; _ } -> float_of_int st.hits
  | _ -> 0.0

(* Untimed set-up of the recurring workload: compile the bases in
   process and flush them to a fresh store in [dir]. *)
let compile_bases (w : Work.t) refs dir =
  let cache = Plan_cache.create ~store:(Cst_service.Plan_store.open_dir dir) ~domains:1 () in
  let outcomes =
    List.init (Array.length w.bases) (fun id ->
        scored refs id (Service.run_job ~cache:(cache, 0) (Work.job w ~id w.bases.(id))))
  in
  Plan_cache.flush cache;
  outcomes

(* The store the timed part of set-up opens afresh (a warm restart),
   after the untimed compile. *)
let warm_store ?store_dir w refs =
  match store_dir with
  | None -> (None, [])
  | Some dir ->
      let compiled = compile_bases w refs dir in
      (Some (Cst_service.Plan_store.open_dir dir), compiled)

(* --- closed loops in process ----------------------------------------- *)

let closed_loop ~pre_s ?store_dir (w : Work.t) refs =
  let nb = Array.length w.bases and nm = Array.length w.measured in
  let first = Work.first w in
  let store, compiled = warm_store ?store_dir w refs in
  let setup_cpu = Meter.cpu () in
  let cache = Plan_cache.create ?store ~domains:1 () in
  let run id set = scored refs id (Service.run_job ~cache:(cache, 0) (Work.job w ~id set)) in
  let set_up =
    List.init nb (fun id -> run id w.bases.(id))
    @ List.init (Array.length w.warmup) (fun i -> run (nb + i) w.warmup.(i))
  in
  let t0 = Meter.cpu () in
  let latency_ms = Array.make nm 0.0 in
  let measured =
    List.init nm (fun k ->
        let a = Meter.cpu () in
        let r = run (first + k) w.measured.(k) in
        latency_ms.(k) <- 1e3 *. (Meter.cpu () -. a);
        r)
  in
  let t1 = Meter.cpu () in
  let outcomes = compiled @ set_up @ measured in
  let t, rounds, power, _ = score w outcomes ~extra_failures:[] in
  {
    attempted = List.length outcomes;
    failed = t.failed;
    failures = t.reasons;
    invalid = None;
    e2e =
      [
        ("setup_s", pre_s +. (t0 -. setup_cpu));
        ("jobs_per_s", float_of_int nm /. (t1 -. t0));
        ("latency_p50_ms", Meter.percentile latency_ms 50.0);
        ("latency_p95_ms", Meter.percentile latency_ms 95.0);
        ("rounds_per_job", rounds);
        ("power_per_job", power);
        ("peak_rss_mb", Meter.peak_rss_mb ());
      ];
    layer = [];
    latency_ms;
    service_ms = [||];
  }

(* --- closed loops on the pool ---------------------------------------- *)

type pool = {
  svc : Service.t;
  m : Mutex.t;
  c : Condition.t;
  mutable submitted : int;  (* driver thread only *)
  completed : int ref;  (* under [m] *)
  submit_at : float array;  (* by job id *)
  done_at : float array;
  results : scored option array;
}

let create_pool ?store ~jobs refs =
  let m = Mutex.create () and c = Condition.create () in
  let done_at = Array.make jobs 0.0 and results = Array.make jobs None in
  let completed = ref 0 in
  let on_outcome (o : Service.outcome) =
    let t = Meter.now () in
    Mutex.lock m;
    done_at.(o.job_id) <- t;
    results.(o.job_id) <- Some (scored refs o.job_id o.result);
    incr completed;
    Condition.signal c;
    Mutex.unlock m
  in
  let svc = Service.create ~domains:pool_domains ?store ~on_outcome () in
  { svc; m; c; submitted = 0; completed; submit_at = Array.make jobs 0.0;
    done_at; results }

let wait pool ok =
  Mutex.lock pool.m;
  while not (ok !(pool.completed)) do
    Condition.wait pool.c pool.m
  done;
  Mutex.unlock pool.m

(* Submits [sets] as jobs [first, first + length) in order, never more
   than one per worker in flight, then waits for all of them. *)
let closed_phase pool (w : Work.t) sets ~first =
  Array.iteri
    (fun k set ->
      let id = first + k in
      wait pool (fun c -> pool.submitted - c < pool_domains);
      pool.submit_at.(id) <- Meter.now ();
      pool.submitted <- pool.submitted + 1;
      Service.submit pool.svc (Work.job w ~id set))
    sets;
  wait pool (fun c -> c = pool.submitted)

(* The closed loop on the pool, on the wall clock: latency is submit to
   outcome callback.  Reported as per-layer metrics only. *)
let pool_loop ?store_dir (w : Work.t) refs =
  let nb = Array.length w.bases and nm = Array.length w.measured in
  let first = Work.first w in
  let store, compiled = warm_store ?store_dir w refs in
  let setup_start = Meter.now () in
  let p = create_pool ?store ~jobs:(first + nm) refs in
  closed_phase p w w.bases ~first:0;
  closed_phase p w w.warmup ~first:nb;
  let stats0 = Service.cache_stats p.svc in
  closed_phase p w w.measured ~first;
  let stats1 = Service.cache_stats p.svc in
  Service.shutdown p.svc;
  let t_first = p.submit_at.(first) in
  let t_last = Array.fold_left Float.max 0.0 (Array.sub p.done_at first nm) in
  let service_ms =
    Array.init nm (fun k -> 1e3 *. (p.done_at.(first + k) -. p.submit_at.(first + k)))
  in
  let outcomes = compiled @ List.init (first + nm) (fun id -> Option.get p.results.(id)) in
  let t, _, _, block_hit_ratio = score w outcomes ~extra_failures:[] in
  {
    attempted = List.length outcomes;
    failed = t.failed;
    failures = t.reasons;
    invalid = None;
    e2e = [];
    layer =
      [
        ("cst_service.plan_cache.hit_ratio", hit_ratio stats0 stats1);
        ("cst_service.plan_cache.block_hit_ratio", block_hit_ratio);
        ("cst_service.plan_store.fault_ins", fault_ins stats1);
        ("bench.wall_setup_s", t_first -. setup_start);
        ("bench.wall_jobs_per_s", float_of_int nm /. (t_last -. t_first));
        ("bench.wall_latency_p50_ms", Meter.percentile service_ms 50.0);
        ("bench.wall_latency_p95_ms", Meter.percentile service_ms 95.0);
      ];
    latency_ms = service_ms;
    service_ms;
  }

(* --- the open loop --------------------------------------------------- *)

(* Longest sleep between ticks, so time-based admission can commit
   between arrivals.  Each wake-up costs the driver a CPU the worker may
   want, so ticks are no finer than the policy needs. *)
let tick_s = 0.002

(* The generator ran late when 5% of arrivals were submitted more than
   this many mean inter-arrival gaps after their due time: the offered
   load then no longer follows the intended process. *)
let late_gaps = 10.0

(* The stream's clock: wall time, which time-based admission needs.  Each
   reading also notes the process CPU clock at that instant, so that the
   arrival, commit and completion stamps can be read on both clocks.  It
   is called from the worker domain too. *)
let recording_clock () =
  let m = Mutex.create () and cpu = Hashtbl.create 8192 in
  let clock () =
    let wall = Meter.now () and c = Meter.cpu () in
    Mutex.protect m (fun () -> Hashtbl.replace cpu wall c);
    wall
  in
  (clock, fun wall -> Mutex.protect m (fun () -> Hashtbl.find cpu wall))

let open_loop ~pre_s (w : Work.t) refs =
  let nw = Array.length w.warmup and nm = Array.length w.measured in
  let setup_wall = Meter.now () and setup_cpu = Meter.cpu () in
  let clock, cpu_at = recording_clock () in
  let stream = Stream.create ~domains ~policy:Work.admission ~clock () in
  Array.iteri (fun id s -> Stream.submit stream (Work.job w ~id s)) w.warmup;
  let warm = Stream.drain stream in
  let epochs0 = (Stream.stats stream).epochs in
  let cache0 = Stream.cache_stats stream in
  let submit_ns = ref 0 and tick_ns = ref 0 in
  let gen_late_ms = Array.make nm 0.0 and due = Array.make nm 0.0 in
  let t0_cpu = Meter.cpu () in
  let t0 = Meter.now () in
  Array.iteri
    (fun k set ->
      due.(k) <- t0 +. w.arrivals.(k);
      let rec pace () =
        let now = Meter.now () in
        if now < due.(k) then begin
          let a = Meter.now_ns () in
          Stream.tick stream;
          tick_ns := !tick_ns + (Meter.now_ns () - a);
          Unix.sleepf (Float.min tick_s (due.(k) -. now));
          pace ()
        end
      in
      pace ();
      let a = Meter.now_ns () in
      gen_late_ms.(k) <- 1e3 *. ((float_of_int a *. 1e-9) -. due.(k));
      Stream.submit stream (Work.job w ~id:(nw + k) set);
      submit_ns := !submit_ns + (Meter.now_ns () - a))
    w.measured;
  (* ids are unique, so drain order is measured-list order *)
  let records = Array.of_list (Stream.drain stream) in
  let st = Stream.stats stream in
  let cache1 = Stream.cache_stats stream in
  Stream.shutdown stream;
  let timing k = snd records.(k) in
  let deadline = due.(nm - 1) +. drain_deadline_s in
  let late =
    List.filter_map
      (fun k ->
        if (timing k).completed > deadline then
          Some (nw + k, "not completed when the run ended")
        else None)
      (List.init nm Fun.id)
  in
  let outcomes =
    List.map
      (fun ((o : Service.outcome), _) -> scored refs o.job_id o.result)
      (warm @ Array.to_list records)
  in
  let t, rounds, power, _ = score w outcomes ~extra_failures:late in
  let epochs = st.epochs - epochs0 in
  let power = power +. (st.recon_delta *. float_of_int epochs /. float_of_int nm) in
  (* Due time to commit on the wall clock (generator lateness and the
     admission wait), plus the job's own service on the CPU clock: from
     its commit, or from the previous completion when the worker was
     still busy, to its completion.  Waiting behind other jobs follows
     the host's speed, so it is left to [bench.wall_latency_*]. *)
  let by_completion = Array.init nm Fun.id in
  Array.sort (fun a b -> Float.compare (timing a).completed (timing b).completed) by_completion;
  let service_cpu = Array.make nm 0.0 in
  Array.iteri
    (fun i k ->
      let t = timing k in
      let start = cpu_at t.committed in
      let start =
        if i = 0 then start
        else Float.max start (cpu_at (timing by_completion.(i - 1)).completed)
      in
      service_cpu.(k) <- cpu_at t.completed -. start)
    by_completion;
  let latency_ms =
    Array.init nm (fun k -> 1e3 *. ((timing k).committed -. due.(k) +. service_cpu.(k)))
  in
  let wall_latency_ms =
    Array.init nm (fun k -> 1e3 *. ((timing k).completed -. due.(k)))
  in
  let service_ms =
    Array.init nm (fun k -> 1e3 *. ((timing k).completed -. (timing k).committed))
  in
  let epoch_wait_ms =
    Array.init nm (fun k -> 1e3 *. ((timing k).committed -. (timing k).arrival))
  in
  (* Backlog seen by each arrival: jobs submitted and not yet completed. *)
  let done_sorted = Array.init nm (fun k -> (timing k).completed) in
  Array.sort Float.compare done_sorted;
  let backlog = Array.make nm 0 and j = ref 0 in
  Array.iteri
    (fun k _ ->
      let a = (timing k).arrival in
      while !j < nm && done_sorted.(!j) <= a do incr j done;
      backlog.(k) <- k + 1 - !j)
    backlog;
  let quarter q =
    Meter.mean (Array.map float_of_int (Array.sub backlog (q * nm / 4) (nm / 4)))
  in
  let late_p95 = Meter.percentile gen_late_ms 95.0 in
  let invalid =
    if late_p95 > late_gaps *. 1e3 /. w.rate then
      Some (Printf.sprintf "generator ran late: p95 %.2f ms" late_p95)
    else if quarter 3 > (2.0 *. quarter 1) +. 2.0 then
      Some
        (Printf.sprintf
           "backlog still growing: mean %.1f in the last quarter, %.1f in \
            the second"
           (quarter 3) (quarter 1))
    else None
  in
  let t_last = Array.fold_left Float.max 0.0 done_sorted in
  let per_job_us ns = float_of_int ns /. 1e3 /. float_of_int nm in
  {
    attempted = List.length outcomes;
    failed = t.failed;
    failures = t.reasons;
    invalid;
    e2e =
      [
        ("setup_s", pre_s +. (t0_cpu -. setup_cpu));
        ("jobs_per_s", float_of_int nm /. (cpu_at t_last -. t0_cpu));
        ("latency_p50_ms", Meter.percentile latency_ms 50.0);
        ("latency_p95_ms", Meter.percentile latency_ms 95.0);
        ("rounds_per_job", rounds);
        ("power_per_job", power);
        ("peak_rss_mb", Meter.peak_rss_mb ());
      ];
    layer =
      [
        ("cst_service.plan_cache.hit_ratio", hit_ratio cache0 cache1);
        ("cst_service.stream.submit_us", per_job_us !submit_ns);
        ("cst_service.stream.tick_us", per_job_us !tick_ns);
        ("cst_service.stream.epoch_wait_p50_ms", Meter.percentile epoch_wait_ms 50.0);
        ("cst_service.stream.service_p95_ms", Meter.percentile service_ms 95.0);
        ("cst_service.stream.epochs_per_job", float_of_int epochs /. float_of_int nm);
        ( "cst_service.stream.max_backlog",
          float_of_int (Array.fold_left max 0 backlog) );
        ("bench.gen_late_p95_ms", late_p95);
        ("bench.wall_setup_s", t0 -. setup_wall);
        ("bench.wall_jobs_per_s", float_of_int nm /. (t_last -. t0));
        ("bench.wall_latency_p50_ms", Meter.percentile wall_latency_ms 50.0);
        ("bench.wall_latency_p95_ms", Meter.percentile wall_latency_ms 95.0);
      ];
    latency_ms;
    service_ms;
  }

(* [pre_s]: CPU time from process start to the start of input
   generation, which [setup_s] includes; generation itself is excluded.
   [store_dir] is the fresh plan-store directory of the recurring
   workload.  With [pool], a closed loop runs on the pool instead
   ([pool_loop]); the open loop always does. *)
let run ?(pool = false) ~pre_s ?store_dir (w : Work.t) refs =
  match w.kind with
  | Work.Stream -> open_loop ~pre_s w refs
  | Work.Cold | Work.Recurring | Work.Blocks ->
      if pool then pool_loop ?store_dir w refs else closed_loop ~pre_s ?store_dir w refs
