type engine = Spec | Message_passing | Segmented

type job = {
  id : int;
  set : Cst_comm.Comm_set.t;
  algo : string;
  engine : engine;
  leaves : int option;
  shape : Cst.Shape.t option;
  placement : Cst_placement.Mapping.t option;
}

let job ?(engine = Spec) ?leaves ?shape ?placement ~id ~algo set =
  if Option.is_some leaves && Option.is_some shape then
    invalid_arg "Service.job: ?leaves and ?shape are exclusive";
  { id; set; algo; engine; leaves; shape; placement }

(* The execution log packs PE numbers and switch ids into 20 bits.  On
   every shape both stay below the leaf count (switches are the nodes
   before the first leaf), and no leaf node id is ever logged. *)
let max_leaves = 1 lsl 20

type error =
  | Unknown_algo of string
  | Unsupported of { algo : string; what : string }
  | Too_large of { n : int; leaves : int }
  | Bad_leaves of int
  | Not_well_nested of Cst_comm.Well_nested.violation
  | Stalled of { round : int; remaining : int }
  | Crashed of string

let error_of_csa : Padr.error -> error = function
  | Padr.Csa.Too_large { n; leaves } -> Too_large { n; leaves }
  | Padr.Csa.Not_well_nested v -> Not_well_nested v
  | Padr.Csa.Stalled { round; remaining } -> Stalled { round; remaining }

let pp_error fmt = function
  | Unknown_algo name -> Format.fprintf fmt "unknown algorithm %S" name
  | Unsupported { algo; what } ->
      Format.fprintf fmt "algorithm %s does not support %s" algo what
  | Too_large { n; leaves } ->
      Format.fprintf fmt "set over %d PEs does not fit a %d-leaf CST" n leaves
  | Bad_leaves leaves when leaves > max_leaves ->
      Format.fprintf fmt "no %d-leaf CST: trees have at most %d leaves" leaves
        max_leaves
  | Bad_leaves leaves ->
      Format.fprintf fmt
        "no %d-leaf CST: leaf counts are powers of two from 2 to %d" leaves
        max_leaves
  | Not_well_nested v ->
      Format.fprintf fmt "set is not schedulable: %a"
        Cst_comm.Well_nested.pp_violation v
  | Stalled { round; remaining } ->
      Format.fprintf fmt "scheduler stalled in round %d with %d pending"
        round remaining
  | Crashed msg -> Format.fprintf fmt "scheduler crashed: %s" msg

type detail = Sched of Padr.Schedule.t | Waves of Padr.Waves.t
type cache_status = Hit | Miss | Bypass

type job_result = {
  algo : string;
  digest : string;
  width : int;
  waves : int;
  rounds : int;
  cycles : int;
  control_messages : int;
  power : Padr.Schedule.power;
  cache : cache_status;
  blocks : int;
  block_hits : int;
  detail : detail;
}

type outcome = { job_id : int; result : (job_result, error) result }

(* --- per-job execution --------------------------------------------- *)

(* Each job runs against a private execution log and its digest is the
   log's structural digest ({!Cst.Exec_log.digest}): the canonical
   record of what the hardware did — rounds, switch transitions,
   register writes, deliveries.  The digest is a pure function of the
   job, so outcomes are byte-identical for any domain count, and the
   spec scheduler and the message-passing engine (which emit the same
   events, merely discovering switches in different orders) digest
   equal. *)

let leaves_for job =
  match job.shape with
  | Some s -> Cst.Shape.leaves s
  | None -> (
      match job.leaves with
      | Some l -> l
      | None -> Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n job.set)))

let job_leaves = leaves_for

let check_leaves job =
  let leaves = leaves_for job in
  if
    leaves <= max_leaves
    && (Option.is_some job.shape
       || (leaves >= 2 && Cst_util.Bits.is_power_of_two leaves))
  then Ok leaves
  else Error (Bad_leaves leaves)

let result_of_schedule ~algo ~digest ~cache ?(control_messages = 0)
    ?(blocks = 0) ?(block_hits = 0) (s : Padr.Schedule.t) =
  let detail = Sched s in
  {
    algo;
    digest;
    width = s.width;
    waves = 1;
    rounds = Padr.Schedule.num_rounds s;
    cycles = s.cycles;
    control_messages;
    power = s.power;
    cache;
    blocks;
    block_hits;
    detail;
  }

let result_of_waves ~algo ~leaves ~digest (w : Padr.Waves.t) =
  let detail = Waves w in
  {
    algo;
    digest;
    width = Cst_comm.Width.width ~leaves w.set;
    waves = Padr.Waves.num_waves w;
    rounds = w.rounds;
    cycles = w.cycles;
    control_messages = 0;
    power = w.power;
    cache = Bypass;
    blocks = 0;
    block_hits = 0;
    detail;
  }

type classification =
  | Right_well_nested
  | Right_crossing of Cst_comm.Well_nested.violation
  | Mixed_orientation

let classify set =
  if Cst_comm.Comm_set.is_right_oriented set then
    match Cst_comm.Well_nested.check set with
    | Ok _ -> Right_well_nested
    | Error v -> Right_crossing v
  else Mixed_orientation

(* Cacheable paths consult the plan cache before scheduling, through
   one cycle in [dispatch]: [lookup] builds the set's key and finds its
   resident plan; a hit replays the frozen plan ({!Padr.Plan.replay}) —
   or, per block on the segmented path, only relocates its log
   ({!Padr.Plan.relocate}) — instead of running the scheduler; a miss
   runs it and [freeze]s the run under the key its lookup built; and
   [finish] digests the log and reports the outcome.  Only successful
   well-nested runs are cached — wave covers (multi-wave logs have no
   single rebase block), crossing sets and errors bypass the cache
   entirely.  Congruence of the cache key guarantees byte-equal
   outcomes: equal signatures mean the sets are aligned translates, so
   the replayed digest, power totals and round counts equal a fresh
   run's (property-tested in test/test_plan.ml and test_service.ml). *)

(* Topologies are immutable and a domain's consecutive jobs mostly share
   one shape, so each domain keeps the last topology it built instead of
   rebuilding the tree-sized tables for every job. *)
let last_topology : Cst.Topology.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let topology_of_shape shape =
  match Domain.DLS.get last_topology with
  | Some t when Cst.Shape.equal (Cst.Topology.shape t) shape -> t
  | _ ->
      let t = Cst.Topology.of_shape shape in
      Domain.DLS.set last_topology (Some t);
      t

let dispatch ?cache (job : job) =
  match Cst_baselines.Registry.find job.algo with
  | None -> Error (Unknown_algo job.algo)
  | Some a -> (
      match check_leaves job with
      | Error e -> Error e
      | Ok leaves ->
      let n = Cst_comm.Comm_set.n job.set in
      if n > leaves then Error (Too_large { n; leaves })
      else
        let topo =
          topology_of_shape
            (match job.shape with
            | Some s -> s
            | None -> Cst.Shape.binary ~leaves)
        in
        let binary = Cst.Topology.is_binary topo in
        if (not binary) && not a.caps.shape_generic then
          Error (Unsupported { algo = a.name; what = "non-binary topologies" })
        else
        let shape = Cst.Topology.shape topo in
        (* [None] without a cache, else the key of a whole set or a block,
           the placement it was built from and its resident plan.  The
           set is placed here only: the replay and the freeze take this
           placement.  Binary plans replay at any compatible placement,
           so their pin is 0; non-binary plans replay only at the base
           they were compiled at. *)
        let lookup ~engine set =
          match cache with
          | None -> None
          | Some (pc, worker) ->
              let placed = Cst.Canon.place set in
              let key : Plan_cache.key =
                { algo = a.name; engine; shape;
                  base = (if binary then 0 else placed.base);
                  canon = placed.canon }
              in
              Some (key, placed, Plan_cache.find pc ~worker key)
        in
        let freeze key ~placed ~producer set ~rounds ~cycles ~control_messages
            log =
          Option.iter
            (fun (pc, worker) ->
              Plan_cache.add pc ~worker key
                (Padr.Plan.of_log ~producer ~topo ~set ~placed ~rounds ~cycles
                   ~control_messages log))
            cache
        in
        let finish ?control_messages ?blocks ?block_hits status log s =
          Ok
            (result_of_schedule ~algo:a.name ~cache:status
               ~digest:(Cst.Exec_log.digest log) ?control_messages ?blocks
               ?block_hits s)
        in
        (* The whole-set path of both engines: replay a resident plan,
           else schedule the set into a fresh log through [run] (which
           returns the schedule and its control-message count) and
           freeze that run when the set is [cacheable] and a cache is
           attached. *)
        let whole ~engine ~producer ~cacheable run =
          match if cacheable then lookup ~engine job.set else None with
          | Some (_, placed, Some plan) ->
              let r = Padr.Plan.replay ~placed plan topo job.set in
              finish ~control_messages:r.control_messages Hit r.log r.schedule
          | looked -> (
              let log = Cst.Exec_log.create () in
              match run log with
              | Error e -> Error e
              | Ok (s, control_messages) ->
                  let status =
                    match looked with
                    | None -> Bypass
                    | Some (key, placed, _) ->
                        freeze key ~placed ~producer job.set
                          ~rounds:(Padr.Schedule.num_rounds s)
                          ~cycles:s.cycles ~control_messages log;
                        Miss
                  in
                  finish ~control_messages status log s)
        in
        let spec ~cacheable =
          whole ~engine:false ~producer:Padr.Plan.Spec ~cacheable (fun log ->
              Ok (a.run ~log topo job.set, 0))
        in
        let waves () =
          if not binary then
            (* The wave cover schedules layer-by-layer through the
               binary spec scheduler; no non-binary counterpart yet. *)
            Error
              (Unsupported
                 { algo = a.name; what = "wave covers on a non-binary topology" })
          else
          let log = Cst.Exec_log.create () in
          match
            Padr.Waves.run ~right:(Cst.Net.create ~log topo)
              ~left:(Cst.Net.create ~log topo) job.set
          with
          | Ok w ->
              Ok
                (result_of_waves ~algo:a.name ~leaves
                   ~digest:(Cst.Exec_log.digest log) w)
          | Error e -> Error (error_of_csa e)
        in
        match job.engine with
        | (Message_passing | Segmented) when not a.caps.engine_available ->
            Error
              (Unsupported { algo = a.name; what = "the message-passing engine" })
        | Message_passing ->
            whole ~engine:true ~producer:Padr.Plan.Engine
              ~cacheable:(classify job.set = Right_well_nested)
              (fun log ->
                match Padr.Engine.run ~log topo job.set with
                | Ok (s, stats) -> Ok (s, stats.control_messages)
                | Error e -> Error (error_of_csa e))
        | Segmented -> (
            (* Segment-parallel engine path: decompose into independent
               top-level blocks, serve each block from the plan cache
               when its signature is resident (a cached block's log is
               relocated while its siblings schedule fresh), merge the
               per-block logs and derive the whole-set schedule once.
               The digest and every outcome field are identical to
               [Message_passing]'s — only [blocks]/[block_hits] reveal
               the path taken.  Per-block plans are keyed exactly like
               whole-set engine plans (same canon, full-tree [leaves]),
               so a whole-set plan can serve a single-block job and vice
               versa.  [decompose] is the one validation on this path:
               it rejects crossing and mixed sets with the error the
               sequential engine reports (same size check, then the
               same [Well_nested.check]), so those outcomes are
               identical to [Message_passing]'s uncached bypass. *)
            match Padr.Par_engine.decompose topo job.set with
            | Error e -> Error (error_of_csa e)
            | Ok bs -> (
                let hits = ref 0 in
                let block_log (b : Cst_comm.Decompose.block) =
                  match lookup ~engine:true b.set with
                  | Some (_, placed, Some plan) ->
                      incr hits;
                      Ok (Padr.Plan.relocate ~placed plan topo b.set)
                  | looked -> (
                      match Padr.Par_engine.run_block topo b with
                      | Error e -> Error e
                      | Ok blog ->
                          (* The rebased block log is exactly what a
                             standalone engine run of [b.set] on the full
                             tree would emit; freeze it with the engine's
                             closed-form metadata. *)
                          Option.iter
                            (fun (key, placed, _) ->
                              let rounds = Cst.Exec_log.final_rounds blog in
                              let cycles, control_messages =
                                Cst.Topology.engine_cost topo ~rounds
                              in
                              freeze key ~placed ~producer:Padr.Plan.Engine
                                b.set
                                ~rounds ~cycles ~control_messages blog)
                            looked;
                          Ok blog)
                in
                let rec collect acc = function
                  | [] -> Ok (List.rev acc)
                  | b :: rest -> (
                      match block_log b with
                      | Error e -> Error e
                      | Ok l -> collect (l :: acc) rest)
                in
                match collect [] bs with
                | Error e -> Error (error_of_csa e)
                | Ok logs ->
                    let log = Cst.Exec_log.create () in
                    let s, stats =
                      Padr.Par_engine.merge_blocks ~log topo job.set logs
                    in
                    let nblocks = List.length bs in
                    let status =
                      if Option.is_none cache then Bypass
                      else if nblocks > 0 && !hits = nblocks then Hit
                      else Miss
                    in
                    finish ~control_messages:stats.control_messages
                      ~blocks:nblocks ~block_hits:!hits status log s))
        | Spec -> (
            match classify job.set with
            | Right_well_nested -> spec ~cacheable:true
            | Right_crossing v ->
                if a.caps.supports = `Arbitrary then spec ~cacheable:false
                else if a.caps.via_waves then waves ()
                else Error (Not_well_nested v)
            | Mixed_orientation ->
                if a.caps.via_waves then waves ()
                else
                  Error
                    (Unsupported
                       { algo = a.name; what = "left-oriented members" })))

(* Rewrite the job's set through its placement, if any.  The permuted
   set then flows through the regular dispatch — canon signatures, plan
   cache keys, widths and digests are all computed on the placed set, so
   the outcome is byte-identical to running the permuted set directly. *)
let place_job (job : job) =
  match job.placement with
  | None -> Ok job
  | Some m ->
      let mn = Cst_placement.Mapping.n m in
      let fits =
        match (job.leaves, job.shape) with
        | None, None ->
            (* no explicit tree: the mapping defines it, as long as the
               set fits and the size is a valid binary leaf count *)
            mn >= Cst_comm.Comm_set.n job.set
            && Cst_util.Bits.is_power_of_two mn
        | _ -> mn = leaves_for job
      in
      if not fits then
        Error
          (Unsupported
             {
               algo = job.algo;
               what =
                 Printf.sprintf
                   "a placement over %d leaf slots (job runs on %d leaves)" mn
                   (leaves_for job);
             })
      else if Cst_placement.Mapping.is_identity m then
        Ok { job with placement = None }
      else
        Ok
          {
            job with
            set = Cst_placement.Mapping.apply_set m job.set;
            placement = None;
          }

let run_job ?cache job =
  (* The catch-all is the pool's fault isolation: whatever escapes a
     scheduler becomes a typed outcome on this job's id. *)
  match Result.bind (place_job job) (dispatch ?cache) with
  | result -> result
  | exception e -> Error (Crashed (Printexc.to_string e))

(* --- canonical serialization --------------------------------------- *)

let outcome_to_string o =
  match o.result with
  | Ok r ->
      Printf.sprintf
        "job %d: ok algo=%s digest=%s width=%d waves=%d rounds=%d cycles=%d \
         msgs=%d connects=%d disconnects=%d writes=%d maxc/sw=%d maxw/sw=%d"
        o.job_id r.algo r.digest r.width r.waves r.rounds r.cycles
        r.control_messages r.power.total_connects r.power.total_disconnects
        r.power.total_writes r.power.max_connects_per_switch
        r.power.max_writes_per_switch
  | Error e ->
      Format.asprintf "job %d: error %a" o.job_id pp_error e

let pp_outcome fmt o = Format.pp_print_string fmt (outcome_to_string o)

(* --- bounded channel ----------------------------------------------- *)

module Chan = struct
  type 'a t = {
    q : 'a Queue.t;
    capacity : int;
    mutable closed : bool;
    m : Mutex.t;
    not_empty : Condition.t;
    not_full : Condition.t;
  }

  let create capacity =
    {
      q = Queue.create ();
      capacity = max 1 capacity;
      closed = false;
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
    }

  let send t x =
    Mutex.lock t.m;
    while Queue.length t.q >= t.capacity && not t.closed do
      Condition.wait t.not_full t.m
    done;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Service: submit after shutdown"
    end;
    Queue.push x t.q;
    Condition.signal t.not_empty;
    Mutex.unlock t.m

  (* [None] only after [close] once the queue has drained. *)
  let recv t =
    Mutex.lock t.m;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.not_empty t.m
    done;
    let x = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Condition.signal t.not_full;
    Mutex.unlock t.m;
    x

  let close t =
    Mutex.lock t.m;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.m
end

(* --- the domain pool ----------------------------------------------- *)

(* Worker domains outlive their pool.  Starting and joining a domain
   costs about what a pool of small jobs does in total, and more the
   larger the heap, so a domain whose pool shut down parks, and the
   next pool takes parked domains before it spawns any.  At most
   [Domain.recommended_domain_count ()] stay parked (a parked domain
   still answers every stop-the-world collection); one more ends
   instead.  A parked domain waits on its own slot, keeps its
   per-domain caches warm, and does not keep the process from
   exiting. *)
module Workers = struct
  type slot = {
    m : Mutex.t;
    c : Condition.t;
    mutable task : ((unit -> unit) * (unit -> unit)) option;
  }

  let lock = Mutex.create ()
  let parked = ref []
  let max_parked = Domain.recommended_domain_count ()

  (* A domain that ran its task parks before it reports back, so a
     caller that waited for [finished] finds it parked.  A task that
     raised ends its domain. *)
  let rec serve slot =
    Mutex.lock slot.m;
    while Option.is_none slot.task do
      Condition.wait slot.c slot.m
    done;
    let work, finished = Option.get slot.task in
    slot.task <- None;
    Mutex.unlock slot.m;
    let ok = match work () with () -> true | exception _ -> false in
    Mutex.lock lock;
    let park = ok && List.length !parked < max_parked in
    if park then parked := slot :: !parked;
    Mutex.unlock lock;
    finished ();
    if park then serve slot

  (* Runs [work], then [finished], on a parked domain or a new one. *)
  let start ~work ~finished =
    Mutex.lock lock;
    match !parked with
    | slot :: rest ->
        parked := rest;
        Mutex.unlock lock;
        Mutex.lock slot.m;
        slot.task <- Some (work, finished);
        Condition.signal slot.c;
        Mutex.unlock slot.m
    | [] ->
        Mutex.unlock lock;
        let slot =
          {
            m = Mutex.create ();
            c = Condition.create ();
            task = Some (work, finished);
          }
        in
        ignore (Domain.spawn (fun () -> serve slot))
end

type t = {
  chan : (int * job) Chan.t;  (* submission index paired with the job *)
  m : Mutex.t;  (* guards everything below *)
  completed_one : Condition.t;
  results : (int, outcome) Hashtbl.t;  (* submission index -> outcome *)
  submitted : int ref;
  completed : int ref;
  stopped : bool ref;
  running : int ref;  (* workers that have not seen the channel close *)
  stopped_all : Condition.t;
  domain_count : int;
  cache : Plan_cache.t option;
  on_outcome : (outcome -> unit) option;
}

let create ?domains ?(queue_capacity = 64) ?(cache = true) ?store ?on_outcome
    () =
  let domain_count =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let chan = Chan.create queue_capacity in
  let m = Mutex.create () in
  let completed_one = Condition.create () in
  let results = Hashtbl.create 64 in
  let completed = ref 0 in
  let pc =
    if cache then Some (Plan_cache.create ?store ~domains:domain_count ())
    else None
  in
  let running = ref domain_count and stopped_all = Condition.create () in
  let rec serve i () =
    match Chan.recv chan with
    | None -> ()
    | Some (idx, job) ->
        let result =
          run_job ?cache:(Option.map (fun c -> (c, i)) pc) job
        in
        let o = { job_id = job.id; result } in
        (* The callback runs on the worker domain, outside the pool
           mutex, before the completion counter moves — so a [drain]
           barrier also orders every callback before its return.  A
           raising callback must not kill the worker. *)
        (match on_outcome with
        | Some f -> ( try f o with _ -> ())
        | None -> ());
        Mutex.lock m;
        if Option.is_none on_outcome then Hashtbl.replace results idx o;
        incr completed;
        Condition.broadcast completed_one;
        Mutex.unlock m;
        serve i ()
  in
  for i = 0 to domain_count - 1 do
    Workers.start ~work:(serve i) ~finished:(fun () ->
        Mutex.lock m;
        decr running;
        Condition.broadcast stopped_all;
        Mutex.unlock m)
  done;
  {
    chan;
    m;
    completed_one;
    results;
    submitted = ref 0;
    completed;
    stopped = ref false;
    running;
    stopped_all;
    domain_count;
    cache = pc;
    on_outcome;
  }

let domains t = t.domain_count
let cache_stats t = Option.map Plan_cache.stats t.cache

let submit t job =
  Mutex.lock t.m;
  if !(t.stopped) then begin
    Mutex.unlock t.m;
    invalid_arg "Service: submit after shutdown"
  end;
  let idx = !(t.submitted) in
  t.submitted := idx + 1;
  Mutex.unlock t.m;
  (* Blocks here when the bounded channel is full: backpressure. *)
  Chan.send t.chan (idx, job)

let drain t =
  Mutex.lock t.m;
  while !(t.completed) < !(t.submitted) do
    Condition.wait t.completed_one t.m
  done;
  let collected =
    Hashtbl.fold (fun idx o acc -> (idx, o) :: acc) t.results []
  in
  Hashtbl.reset t.results;
  Mutex.unlock t.m;
  (* Deterministic order regardless of completion interleaving: job id,
     ties broken by submission index. *)
  List.sort
    (fun (i1, o1) (i2, o2) ->
      match Int.compare o1.job_id o2.job_id with
      | 0 -> Int.compare i1 i2
      | c -> c)
    collected
  |> List.map snd

let shutdown t =
  Mutex.lock t.m;
  let already = !(t.stopped) in
  t.stopped := true;
  Mutex.unlock t.m;
  if not already then begin
    Chan.close t.chan;
    Mutex.lock t.m;
    while !(t.running) > 0 do
      Condition.wait t.stopped_all t.m
    done;
    Mutex.unlock t.m;
    (* workers are done: persist the still-dirty working set so a
       restart against the same store directory warm-starts *)
    Option.iter Plan_cache.flush t.cache
  end

let run ?domains ?queue_capacity ?cache ?store jobs =
  let t = create ?domains ?queue_capacity ?cache ?store () in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      List.iter (submit t) jobs;
      drain t)
