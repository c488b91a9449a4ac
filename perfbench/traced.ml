(* The traced run: per-layer self times.

   In one process and on one domain, each job of the list is run twice:
   once through [Service.run_job] untimed by spans (the total the layers
   must add up to), and once through [dispatch] below, which calls the
   same public layer functions in the order [Service.dispatch] uses and
   records a span around each call.  The two runs use separate plan
   caches that see the same job sequence, so they take the same
   hit/miss paths; the replica's digest must equal run_job's.  Spans stay
   in memory and are written out when the run ends. *)

module Service = Cst_service.Service
module Plan_cache = Cst_service.Plan_cache
module Plan_store = Cst_service.Plan_store
module Set = Cst_comm.Comm_set

(* --- spans ----------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  job : int;  (** job id, -1 outside a job *)
  name : string;
  start : int;  (** ns, monotonic *)
  stop : int;
}

let recorded = ref []
let next_id = ref 0
let open_spans = ref []
let current_job = ref (-1)

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let start = Meter.now_ns () in
  let r = f () in
  let stop = Meter.now_ns () in
  open_spans := List.tl !open_spans;
  recorded := { id; parent; job = !current_job; name; start; stop } :: !recorded;
  r

(* --- the dispatch replica -------------------------------------------- *)

type replica = { digest : string; rounds : int; events : int; blocks : int }

let get_ok = function
  | Ok x -> x
  | Error e ->
      failwith (Format.asprintf "%a" Service.pp_error (Service.error_of_csa e))

let run_end_rounds log =
  match Cst.Exec_log.event log (Cst.Exec_log.length log - 1) with
  | Cst.Exec_log.Run_end { rounds } -> rounds
  | _ -> failwith "replica: log does not end a run"

(* The plan tiers the replica consults: a memory cache, and for the
   recurring workload the disk store, looked up explicitly on a memory
   miss so that the store's time is its own span. *)
type tiers = { cache : Plan_cache.t; store : Plan_store.t option }

let lookup t (key : Plan_cache.key) =
  let find () = Plan_cache.find t.cache ~worker:0 key in
  match span "cst_service.plan_cache.find" find with
  | Some plan -> Some plan
  | None -> (
      match t.store with
      | None -> None
      | Some st ->
          span "cst_service.plan_store.find" (fun () ->
              Plan_store.find st ~algo:key.algo ~engine:key.engine ~shape:key.shape
                ~base:key.base ~canon:key.canon)
          |> Option.map (fun plan ->
                 span "cst_service.plan_cache.add" (fun () ->
                     Plan_cache.add t.cache ~worker:0 key plan);
                 plan))

let add t key plan =
  span "cst_service.plan_cache.add" (fun () ->
      Plan_cache.add t.cache ~worker:0 key plan)

(* [Padr.Plan.replay], split so that relocating the log and deriving the
   schedule from it are separate spans. *)
let replay ?(keep_configs = true) (plan : Padr.Plan.t) topo set =
  let leaves = Cst.Topology.leaves topo and levels = Cst.Topology.levels topo in
  let log =
    span "padr.replay" (fun () ->
        let placed = span "cst.canon" (fun () -> Cst.Canon.place set) in
        if
          not
            (Cst.Canon.equal placed.canon plan.canon
            && Set.n set <= leaves
            && Cst.Canon.compatible plan.canon ~leaves ~base:placed.base)
        then invalid_arg "replica: the plan does not fit the set";
        if leaves = plan.leaves && placed.base = plan.base then plan.log
        else
          Cst.Exec_log.rebase plan.log ~src_leaves:plan.leaves ~src_base:plan.base
            ~dst_leaves:leaves ~dst_base:placed.base
            ~align:(Cst.Canon.align plan.canon))
  in
  let cycles =
    if leaves = plan.leaves then plan.cycles
    else
      match plan.producer with
      | Padr.Plan.Spec -> levels + (plan.rounds * (levels + 1))
      | Padr.Plan.Engine -> 1 + levels + (plan.rounds * (levels + 2))
  in
  ( log,
    span "padr.schedule" (fun () ->
        Padr.Schedule.of_log ~keep_configs ~set ~topo ~cycles log) )

let key ~shape ~engine canon : Plan_cache.key =
  { algo = "csa"; engine; shape; base = 0; canon }

let dispatch tiers (job : Service.job) =
  span "job" (fun () ->
      let a = Option.get (Cst_baselines.Registry.find job.algo) in
      let leaves = Service.job_leaves job and set = job.set in
      if Set.n set > leaves then failwith "replica: set too large";
      let topo = span "cst.topology" (fun () -> Cst.Topology.create ~leaves) in
      let shape = Cst.Topology.shape topo and levels = Cst.Topology.levels topo in
      let well_nested () =
        span "cst_comm.classify" (fun () ->
            Set.is_right_oriented set && Result.is_ok (Cst_comm.Well_nested.check set))
      in
      let finish ?(blocks = 0) log rounds =
        let digest = span "cst.digest" (fun () -> Cst.Exec_log.digest log) in
        { digest; rounds; events = Cst.Exec_log.length log; blocks }
      in
      let engine_cycles rounds = 1 + levels + (rounds * (levels + 2)) in
      match job.engine with
      | Service.Message_passing -> (
          if not (well_nested ()) then failwith "replica: engine jobs are well-nested";
          let placed = span "cst.canon" (fun () -> Cst.Canon.place set) in
          let k = key ~shape ~engine:true placed.canon in
          match lookup tiers k with
          | Some plan ->
              let log, s = replay plan topo set in
              finish log (Padr.Schedule.num_rounds s)
          | None ->
              let log = Cst.Exec_log.create () in
              let stats =
                span "padr.engine" (fun () ->
                    get_ok (Padr.Engine.run_log ~log topo set))
              in
              let s =
                span "padr.schedule" (fun () ->
                    Padr.Schedule.of_log ~set ~topo ~cycles:stats.cycles log)
              in
              let rounds = Padr.Schedule.num_rounds s in
              add tiers k
                (span "padr.freeze" (fun () ->
                     Padr.Plan.of_log ~producer:Padr.Plan.Engine ~topo ~set ~rounds
                       ~cycles:s.cycles ~control_messages:stats.control_messages log));
              finish log rounds)
      | Service.Segmented ->
          if not (well_nested ()) then failwith "replica: engine jobs are well-nested";
          (* [Padr.Par_engine.decompose]: validation, then the blocks *)
          let bs =
            span "padr.par_decompose" (fun () ->
                ignore (Result.get_ok (Cst_comm.Well_nested.check set));
                span "cst_comm.blocks" (fun () ->
                    Cst_comm.Decompose.blocks ~check:false set))
          in
          let block_log (b : Cst_comm.Decompose.block) =
            let placed = span "cst.canon" (fun () -> Cst.Canon.place b.set) in
            let k = key ~shape ~engine:true placed.canon in
            match lookup tiers k with
            | Some plan -> fst (replay ~keep_configs:false plan topo b.set)
            | None ->
                let blog =
                  span "padr.par_block" (fun () ->
                      get_ok (Padr.Par_engine.run_block topo b))
                in
                let rounds = run_end_rounds blog in
                add tiers k
                  (span "padr.freeze" (fun () ->
                       Padr.Plan.of_log ~producer:Padr.Plan.Engine ~topo
                         ~set:b.set ~rounds
                         ~cycles:(engine_cycles rounds)
                         ~control_messages:(2 * (leaves - 1) * (rounds + 1))
                         blog));
                blog
          in
          let logs = List.map block_log bs in
          (* [Padr.Par_engine.merge_blocks]: the merge, then the schedule *)
          let log = Cst.Exec_log.create () in
          let s =
            span "padr.par_merge" (fun () ->
                let merged = Cst.Exec_log.merge ~into:log ~levels logs in
                let cycles = engine_cycles (run_end_rounds merged) in
                span "padr.schedule" (fun () ->
                    Padr.Schedule.of_log ~set ~topo ~cycles merged))
          in
          finish ~blocks:(List.length bs) log (Padr.Schedule.num_rounds s)
      | Service.Spec -> (
          if well_nested () then (
            let placed = span "cst.canon" (fun () -> Cst.Canon.place set) in
            let k = key ~shape ~engine:false placed.canon in
            match lookup tiers k with
            | Some plan ->
                let log, s = replay plan topo set in
                finish log (Padr.Schedule.num_rounds s)
            | None ->
                let log = Cst.Exec_log.create () in
                let s = span "padr.spec" (fun () -> a.run ~log topo set) in
                let rounds = Padr.Schedule.num_rounds s in
                add tiers k
                  (span "padr.freeze" (fun () ->
                       Padr.Plan.of_log ~producer:Padr.Plan.Spec ~topo ~set ~rounds
                         ~cycles:s.cycles ~control_messages:0 log));
                finish log rounds)
          else
            (* crossing or mixed: the CSA wave cover *)
            let log = Cst.Exec_log.create () in
            let w =
              span "padr.waves" (fun () ->
                  get_ok (Padr.Waves.schedule ~leaves ~log set))
            in
            let r = finish log w.rounds in
            ignore
              (span "cst_comm.width" (fun () ->
                   Cst_comm.Width.width ~leaves w.set));
            r))

(* The per-set analysis [Stream.submit] does before admission. *)
let stream_submit ~leaves set =
  span "stream.submit" (fun () ->
      ignore (span "cst_comm.width" (fun () -> Cst_comm.Width.crossings ~leaves set));
      if
        span "cst_comm.classify" (fun () ->
            Set.is_right_oriented set && Result.is_ok (Cst_comm.Well_nested.check set))
      then
        ignore
          (span "cst_comm.blocks" (fun () ->
               Cst_comm.Decompose.blocks ~check:false set))
      else
        let right, left = Cst_comm.Decompose.split set in
        ignore
          (Cst_comm.Wn_cover.num_layers right
          + Cst_comm.Wn_cover.num_layers (Cst_comm.Mirror.set left)))

(* --- the run --------------------------------------------------------- *)

type result = {
  attempted : int;
  failed : int;
  failures : string list;
  layer : (string * float) list;
  run_job_us : float array;  (** per measured job, in list order *)
  table : string;  (** human-readable self-time breakdown *)
  spans : span list;
}

(* Layer spans reported per job; the two roots are the replicas
   themselves, whose self time is glue. *)
let layer_names =
  [ "cst_comm.classify"; "cst_comm.width"; "cst_comm.blocks"; "cst.topology";
    "cst.canon"; "cst.digest"; "padr.engine"; "padr.schedule"; "padr.freeze";
    "padr.replay"; "padr.spec"; "padr.waves"; "padr.par_decompose";
    "padr.par_block"; "padr.par_merge"; "cst_service.plan_cache.find";
    "cst_service.plan_cache.add" ]

let run ?store_dir (w : Work.t) refs =
  recorded := [];
  next_id := 0;
  let failures = Refs.tally () and attempted = ref 0 in
  let check id r =
    incr attempted;
    Option.iter (Refs.fail failures id) (Refs.check refs.(id) r)
  in
  let memory () = Plan_cache.create ~domains:1 () in
  let tiers, cache =
    match store_dir with
    | Some dir when w.kind = Work.Recurring ->
        (* untimed, as in the timed run: compile the bases into the store *)
        List.iter
          (fun (s : Timed.scored) ->
            incr attempted;
            Option.iter (Refs.fail failures s.id) s.verdict)
          (Timed.compile_bases w refs dir);
        ( { cache = memory (); store = Some (Plan_store.open_dir dir) },
          Plan_cache.create ~store:(Plan_store.open_dir dir) ~domains:1 () )
    | _ -> ({ cache = memory (); store = None }, memory ())
  in
  let nm = Array.length w.measured in
  let first = Work.first w in
  let run_job_ns = Array.make nm 0 in
  let alloc_words = ref 0.0 and majors = ref 0 in
  let events = ref 0 and blocks = ref 0 in
  let one id set =
    let job = Work.job w ~id set in
    let replicate () =
      current_job := id;
      if w.kind = Work.Stream then stream_submit ~leaves:w.pes set;
      let r = dispatch tiers job in
      current_job := -1;
      r
    in
    let timed () =
      let g0 = Gc.quick_stat () in
      let t0 = Meter.now_ns () in
      let r = Service.run_job ~cache:(cache, 0) job in
      let t1 = Meter.now_ns () in
      let g1 = Gc.quick_stat () in
      ( r,
        t1 - t0,
        g1.minor_words -. g0.minor_words +. g1.major_words -. g0.major_words
        -. (g1.promoted_words -. g0.promoted_words),
        g1.major_collections - g0.major_collections )
    in
    (* alternate which copy runs first, so neither always finds the
       set's data warm in the CPU caches *)
    let rep, (r, ns, words, major) =
      if id mod 2 = 0 then
        let t = timed () in
        (replicate (), t)
      else
        let rep = replicate () in
        (rep, timed ())
    in
    check id r;
    (match r with
    | Ok r when r.digest <> rep.digest ->
        Refs.fail failures id "the traced replica diverged from run_job"
    | _ -> ());
    let k = id - first in
    if k >= 0 then begin
      run_job_ns.(k) <- ns;
      alloc_words := !alloc_words +. words;
      majors := !majors + major;
      events := !events + rep.events;
      blocks := !blocks + rep.blocks
    end
  in
  Array.iteri one w.bases;
  Array.iteri (fun i s -> one (Array.length w.bases + i) s) w.warmup;
  Array.iteri (fun i s -> one (first + i) s) w.measured;
  (* self time = duration minus the children's durations *)
  let spans = !recorded in
  let by_id = Hashtbl.create 4096 and children = Hashtbl.create 4096 in
  let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      if s.parent >= 0 then
        Hashtbl.replace children s.parent (s.stop - s.start + get children s.parent))
    spans;
  let self s = s.stop - s.start - get children s.id in
  let rec root s = if s.parent < 0 then s else root (Hashtbl.find by_id s.parent) in
  let totals = Hashtbl.create 32 in
  let bump key v = Hashtbl.replace totals key (v + get totals key) in
  let store_ns = ref 0 and store_calls = ref 0 in
  List.iter
    (fun s ->
      if s.name = "cst_service.plan_store.find" then begin
        store_ns := !store_ns + self s;
        incr store_calls
      end;
      if s.job >= first then begin
        bump s.name (self s);
        if s.parent >= 0 && (root s).name = "job" then bump "covered" (self s);
        if s.name = "job" then bump "job.total" (s.stop - s.start)
      end)
    spans;
  let total name = float_of_int (get totals name) in
  let per_job_us ns = ns /. 1e3 /. float_of_int nm in
  let run_job_total = float_of_int (Array.fold_left ( + ) 0 run_job_ns) in
  let coverage = total "covered" /. run_job_total in
  let layer =
    List.map (fun n -> (n ^ "_us", per_job_us (total n))) layer_names
    @ [
        ("cst.log_events_per_job", float_of_int !events /. float_of_int nm);
        ("padr.blocks_per_job", float_of_int !blocks /. float_of_int nm);
        ("cst_service.run_job_us", per_job_us run_job_total);
        ( "cst_service.plan_store.find_us",
          if !store_calls = 0 then 0.0
          else float_of_int !store_ns /. 1e3 /. float_of_int !store_calls );
        ("gc.alloc_kw_per_job", !alloc_words /. 1e3 /. float_of_int nm);
        ("gc.major_per_1k_jobs", float_of_int !majors *. 1e3 /. float_of_int nm);
        ("trace.coverage", coverage);
        ("trace.overhead", (total "job.total" /. run_job_total) -. 1.0);
      ]
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "self time per measured job (%d jobs; run_job %.1f us/job)\n" nm
    (per_job_us run_job_total);
  List.iter
    (fun n ->
      let t = total n in
      if t > 0.0 then
        Printf.bprintf b "  %-32s %10.1f us %6.1f%%\n" n (per_job_us t)
          (100.0 *. t /. run_job_total))
    (layer_names @ [ "job"; "stream.submit" ]);
  let uncovered = 1.0 -. coverage in
  Printf.bprintf b "  coverage %.3f; uncovered %.1f%% of run_job" coverage
    (100.0 *. uncovered);
  if uncovered > 0.10 then
    Printf.bprintf b
      " -- above 10%%: replica glue between layer calls (\"job\" self \
       time, %.1f%%) and work inside Service.run_job that no layer span \
       covers"
      (100.0 *. total "job" /. run_job_total);
  Buffer.add_char b '\n';
  {
    attempted = !attempted;
    failed = failures.failed;
    failures = failures.reasons;
    layer;
    run_job_us = Array.map (fun ns -> float_of_int ns /. 1e3) run_job_ns;
    table = Buffer.contents b;
    spans;
  }

let write_spans path spans =
  let oc = open_out path in
  output_string oc "id\tparent\tjob\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.id s.parent s.job s.name
        s.start s.stop)
    (List.rev spans);
  close_out oc

let to_json r =
  Meter.Obj
    [
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("failures", Arr (List.map (fun s -> Meter.Str s) r.failures));
      ("layer", Meter.metrics r.layer);
      ("run_job_us", Meter.nums r.run_job_us);
    ]
