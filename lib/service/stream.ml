type timing = {
  arrival : float;
  committed : float;
  completed : float;
  epoch : int;
}

(* Per-job bookkeeping between submit and completion.  [i_committed] and
   [i_epoch] are stamped when the job's epoch commits. *)
type info = {
  i_arrival : float;
  mutable i_committed : float;
  mutable i_epoch : int;
}

type pending = { p_job : Service.job; p_subidx : int }

(* A job's tree: its leaf count and, off binary, its shape.  Binary
   shapes are indistinguishable from a plain [leaves] override
   everywhere in the stack, so they take the classic path. *)
type tree = int * Cst.Shape.t option

let tree_of (job : Service.job) : tree =
  ( Service.job_leaves job,
    match job.shape with
    | Some s when not (Cst.Shape.is_binary s) -> Some s
    | _ -> None )

let same_tree ((l1, s1) : tree) ((l2, s2) : tree) =
  l1 = l2 && Option.equal Cst.Shape.equal s1 s2

(* The open epoch.  All members target one tree, and every member that
   runs at all is charged into [e_load], the stream's load on that tree
   ([None] for a tree that cannot exist); [e_width] is the load's
   capacity-ceiled maximum after the last member that fit — exactly the
   width of the union set on that topology. *)
type epoch_state = {
  e_tree : tree;
  e_load : Cst.Compat.Load.t option;
  mutable e_width : int;
  mutable e_members : pending list;  (* reversed *)
  mutable e_jobs : int;
  mutable e_opened : float;
  mutable e_sum_arrivals : float;
  mutable e_intervals : (int * int) list;  (* (base, align) block intervals *)
  mutable e_disjoint : bool;
}

type t = {
  svc : Service.t;
  policy : Admission.t;
  recon_delta : float;
  clock : unit -> float;
  placement : Cst_placement.Auto.t option;
  m : Mutex.t;
  done_one : Condition.t;
  mutable epoch : epoch_state option;
  (* the last tree's load, cleared and reused by each epoch on it *)
  mutable load : (tree * Cst.Compat.Load.t) option;
  (* job id -> submission indices awaiting completion, FIFO: the pool's
     outcomes carry only the caller-chosen id, which need not be unique *)
  awaiting : (int, int Queue.t) Hashtbl.t;
  info : (int, info) Hashtbl.t;  (* submission index -> envelope *)
  finished : (int, Service.outcome * timing) Hashtbl.t;
  mutable sojourns : float list;  (* seconds, all completed jobs *)
  mutable submitted : int;
  mutable completed : int;
  mutable epochs : int;
  mutable coalesced_jobs : int;
  mutable max_epoch_jobs : int;
  mutable max_epoch_width : int;
  mutable disjoint_epochs : int;
  mutable crossing_jobs : int;
  mutable max_wave_layers : int;
  mutable job_connects : int;
  mutable job_writes : int;
  mutable placed_jobs : int;
  mutable stopped : bool;
}

(* --- completion (runs on worker domains) --------------------------- *)

let record_completion t (o : Service.outcome) =
  let now = t.clock () in
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.awaiting o.job_id with
  | Some q when not (Queue.is_empty q) ->
      let subidx = Queue.pop q in
      let info = Hashtbl.find t.info subidx in
      Hashtbl.remove t.info subidx;
      Hashtbl.replace t.finished subidx
        ( o,
          {
            arrival = info.i_arrival;
            committed = info.i_committed;
            completed = now;
            epoch = info.i_epoch;
          } );
      t.sojourns <- (now -. info.i_arrival) :: t.sojourns;
      (match o.result with
      | Ok r ->
          let p : Padr.Schedule.power = r.power in
          t.job_connects <- t.job_connects + p.total_connects;
          t.job_writes <- t.job_writes + p.total_writes;
          (match r.detail with
          | Service.Waves _ when r.waves > t.max_wave_layers ->
              t.max_wave_layers <- r.waves
          | _ -> ())
      | Error _ -> ())
  | _ -> () (* outcome for a job this stream never admitted *));
  t.completed <- t.completed + 1;
  Condition.broadcast t.done_one;
  Mutex.unlock t.m

let create ?domains ?queue_capacity ?cache ?store
    ?(policy = Admission.Immediate) ?(recon_delta = 16.0) ?clock ?placement ()
    =
  let clock = match clock with Some c -> c | None -> Unix.gettimeofday in
  (* The pool's [on_outcome] closes over the stream being built. *)
  let cell = ref None in
  let svc =
    Service.create ?domains ?queue_capacity ?cache ?store
      ~on_outcome:(fun o ->
        match !cell with Some t -> record_completion t o | None -> ())
      ()
  in
  let t =
    {
      svc;
      policy;
      recon_delta;
      clock;
      placement;
      m = Mutex.create ();
      done_one = Condition.create ();
      epoch = None;
      load = None;
      awaiting = Hashtbl.create 64;
      info = Hashtbl.create 64;
      finished = Hashtbl.create 64;
      sojourns = [];
      submitted = 0;
      completed = 0;
      epochs = 0;
      coalesced_jobs = 0;
      max_epoch_jobs = 0;
      max_epoch_width = 0;
      disjoint_epochs = 0;
      crossing_jobs = 0;
      max_wave_layers = 0;
      job_connects = 0;
      job_writes = 0;
      placed_jobs = 0;
      stopped = false;
    }
  in
  cell := Some t;
  t

(* --- epoch width / structure math ---------------------------------- *)

(* Aligned top-level block intervals of a right-oriented well-nested
   set; [None] when the set has no single well-nested plan. *)
let intervals_of set =
  if
    Cst_comm.Comm_set.is_right_oriented set
    && Result.is_ok (Cst_comm.Well_nested.check set)
  then
    Some
      (List.map
         (fun (b : Cst_comm.Decompose.block) -> (b.base, b.align))
         (Cst_comm.Decompose.blocks ~check:false set))
  else None

let overlaps (b1, a1) (b2, a2) = b1 < b2 + a2 && b2 < b1 + a1

(* --- commit --------------------------------------------------------- *)

(* Closes the open epoch under the stream lock and returns the member
   jobs in arrival order.  The caller must dispatch them to the pool
   AFTER releasing the lock: [Service.submit] blocks on backpressure,
   and the workers that relieve it need the lock to record
   completions. *)
let commit_locked t now =
  match t.epoch with
  | None -> []
  | Some e ->
      let members = List.rev e.e_members in
      let eid = t.epochs in
      t.epochs <- t.epochs + 1;
      if e.e_jobs >= 2 then begin
        t.coalesced_jobs <- t.coalesced_jobs + e.e_jobs;
        if e.e_disjoint then t.disjoint_epochs <- t.disjoint_epochs + 1
      end;
      if e.e_jobs > t.max_epoch_jobs then t.max_epoch_jobs <- e.e_jobs;
      if e.e_width > t.max_epoch_width then t.max_epoch_width <- e.e_width;
      List.iter
        (fun p ->
          let info = Hashtbl.find t.info p.p_subidx in
          info.i_committed <- now;
          info.i_epoch <- eid)
        members;
      t.epoch <- None;
      List.map (fun p -> p.p_job) members

let dispatch t jobs = List.iter (Service.submit t.svc) jobs

let view (e : epoch_state) ~now : Admission.queue_view =
  {
    jobs = e.e_jobs;
    opened = e.e_opened;
    accumulated_wait = (float_of_int e.e_jobs *. now) -. e.e_sum_arrivals;
    width = e.e_width;
  }

let evaluate_locked t now =
  match t.epoch with
  | None -> []
  | Some e -> (
      match Admission.decide t.policy ~now (view e ~now) with
      | Admission.Commit -> commit_locked t now
      | Admission.Wait -> [])

(* Opens an empty epoch on [tree].  A tree that cannot exist gets no
   load: nothing is built or sized from its count or its shape, and the
   pool answers its jobs with the typed error.  Otherwise the stream's
   load is cleared and reused while the tree repeats, so a topology and
   tree-sized tables are built only when the tree changes. *)
let open_epoch t ~now tree valid =
  let e_load =
    match (valid, t.load) with
    | Error _, _ -> None
    | Ok _, Some (last, load) when same_tree last tree ->
        Cst.Compat.Load.clear load;
        Some load
    | Ok _, _ ->
        let load =
          Cst.Compat.Load.create
            (match tree with
            | _, Some shape -> Cst.Topology.of_shape shape
            | leaves, None -> Cst.Topology.create ~leaves)
        in
        t.load <- Some (tree, load);
        Some load
  in
  let e =
    {
      e_tree = tree;
      e_load;
      e_width = 0;
      e_members = [];
      e_jobs = 0;
      e_opened = now;
      e_sum_arrivals = 0.0;
      e_intervals = [];
      e_disjoint = true;
    }
  in
  t.epoch <- Some e;
  e

(* --- driver interface ----------------------------------------------- *)

(* Admits one job under the stream lock and returns the jobs to
   dispatch. *)
let admit_locked t (job : Service.job) =
  if t.stopped then invalid_arg "Stream: submit after shutdown";
  let now = t.clock () in
  (* Self-adjusting placement: fold the arriving set into the running
     demand profile, let the ski-rental meter install a better mapping
     only between epochs (every member of an epoch shares one mapping),
     and rewrite the job through the installed mapping before any width
     math — the epoch's load, the admission policy and the pool all
     see the placed set, so outcomes are byte-identical to submitting
     the permuted set directly.  A set over more PEs than the profile
     holds passes through unobserved and unplaced, like a job for
     another tree. *)
  let job =
    match t.placement with
    | None -> job
    | Some auto
      when Cst_comm.Comm_set.n job.Service.set
           > Cst_placement.Profile.n (Cst_placement.Auto.profile auto) ->
        job
    | Some auto ->
        Cst_placement.Auto.observe auto job.Service.set;
        if t.epoch = None then ignore (Cst_placement.Auto.maybe_remap auto);
        let m = Cst_placement.Auto.installed auto in
        if Cst_placement.Mapping.is_identity m then job
        else begin
          let mn = Cst_placement.Mapping.n m in
          let eligible =
            match (job.Service.leaves, job.Service.shape) with
            | None, None -> Cst_comm.Comm_set.n job.Service.set <= mn
            | _ -> mn = Service.job_leaves job
          in
          if eligible then begin
            t.placed_jobs <- t.placed_jobs + 1;
            {
              job with
              Service.set = Cst_placement.Mapping.apply_set m job.Service.set;
              placement = None;
            }
          end
          else job
        end
  in
  let tree = tree_of job in
  let to_dispatch = ref [] in
  let commit () = to_dispatch := commit_locked t now :: !to_dispatch in
  (* A different tree size or topology shape cannot share the epoch's
     load: the structure forces an epoch boundary before the policy
     speaks. *)
  (match t.epoch with
  | Some e when not (same_tree e.e_tree tree) -> commit ()
  | _ -> ());
  let epoch () =
    match t.epoch with
    | Some e -> e
    | None -> open_epoch t ~now tree (Service.check_leaves job)
  in
  let e = epoch () in
  (* A job participates in the width only when it would run at all: a
     set too large for its tree errors out in the pool.  A width-capped
     policy flushes rather than let the merge exceed the cap: the epoch
     commits at its width before this job, which then opens the next
     epoch on the same, cleared load. *)
  let e =
    match e.e_load with
    | Some load when Cst_comm.Comm_set.n job.set <= fst tree ->
        Cst.Compat.Load.charge load job.set;
        let over_cap =
          match t.policy with
          | Admission.Delta_threshold { max_width = Some w; _ } ->
              e.e_jobs > 0 && Cst.Compat.Load.width load > w
          | _ -> false
        in
        let e =
          if over_cap then begin
            commit ();
            let fresh = epoch () in
            Cst.Compat.Load.charge load job.set;
            fresh
          end
          else e
        in
        e.e_width <- Cst.Compat.Load.width load;
        e
    | _ -> e
  in
  let subidx = t.submitted in
  t.submitted <- subidx + 1;
  Hashtbl.replace t.info subidx
    { i_arrival = now; i_committed = now; i_epoch = -1 };
  let q =
    match Hashtbl.find_opt t.awaiting job.id with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace t.awaiting job.id q;
        q
  in
  Queue.push subidx q;
  e.e_members <- { p_job = job; p_subidx = subidx } :: e.e_members;
  e.e_jobs <- e.e_jobs + 1;
  e.e_sum_arrivals <- e.e_sum_arrivals +. now;
  (match intervals_of job.set with
  | Some ivs ->
      if List.exists (fun i -> List.exists (overlaps i) e.e_intervals) ivs
      then e.e_disjoint <- false
      else e.e_intervals <- ivs @ e.e_intervals
  | None ->
      e.e_disjoint <- false;
      t.crossing_jobs <- t.crossing_jobs + 1);
  to_dispatch := evaluate_locked t now :: !to_dispatch;
  List.concat (List.rev !to_dispatch)

let submit t job = dispatch t (Mutex.protect t.m (fun () -> admit_locked t job))

let tick t =
  dispatch t
    (Mutex.protect t.m (fun () ->
         if t.stopped then [] else evaluate_locked t (t.clock ())))

let flush t =
  dispatch t
    (Mutex.protect t.m (fun () ->
         if t.stopped then [] else commit_locked t (t.clock ())))

let drain t =
  flush t;
  Mutex.lock t.m;
  while t.completed < t.submitted do
    Condition.wait t.done_one t.m
  done;
  let collected =
    Hashtbl.fold (fun idx v acc -> (idx, v) :: acc) t.finished []
  in
  Hashtbl.reset t.finished;
  Mutex.unlock t.m;
  List.sort
    (fun (i1, ((o1 : Service.outcome), _)) (i2, ((o2 : Service.outcome), _)) ->
      match Int.compare o1.job_id o2.job_id with
      | 0 -> Int.compare i1 i2
      | c -> c)
    collected
  |> List.map snd

let shutdown t =
  flush t;
  Mutex.lock t.m;
  t.stopped <- true;
  Mutex.unlock t.m;
  Service.shutdown t.svc

(* --- stats ----------------------------------------------------------- *)

type stats = {
  submitted : int;
  completed : int;
  epochs : int;
  coalesced_jobs : int;
  max_epoch_jobs : int;
  max_epoch_width : int;
  disjoint_epochs : int;
  crossing_jobs : int;
  max_wave_layers : int;
  recon_delta : float;
  recon_power : float;
  job_connects : int;
  job_writes : int;
  placed_jobs : int;
  remaps : int;
  sojourn_p50 : float;
  sojourn_p99 : float;
}

let stats t =
  Mutex.lock t.m;
  let sojourns = Array.of_list t.sojourns in
  let pct p =
    if Array.length sojourns = 0 then 0.0
    else Cst_util.Stats.percentile sojourns p
  in
  let s =
    {
      submitted = t.submitted;
      completed = t.completed;
      epochs = t.epochs;
      coalesced_jobs = t.coalesced_jobs;
      max_epoch_jobs = t.max_epoch_jobs;
      max_epoch_width = t.max_epoch_width;
      disjoint_epochs = t.disjoint_epochs;
      crossing_jobs = t.crossing_jobs;
      max_wave_layers = t.max_wave_layers;
      recon_delta = t.recon_delta;
      recon_power = t.recon_delta *. float_of_int t.epochs;
      job_connects = t.job_connects;
      job_writes = t.job_writes;
      placed_jobs = t.placed_jobs;
      remaps =
        (match t.placement with
        | None -> 0
        | Some auto -> Cst_placement.Auto.remaps auto);
      sojourn_p50 = pct 50.0;
      sojourn_p99 = pct 99.0;
    }
  in
  Mutex.unlock t.m;
  s

let total_power s =
  float_of_int (s.job_connects + s.job_writes) +. s.recon_power

let sections t =
  let s = stats t in
  Stats.section "stream"
    [
      ("submitted", Stats.Int s.submitted);
      ("completed", Stats.Int s.completed);
      ("epochs", Stats.Int s.epochs);
      ("coalesced_jobs", Stats.Int s.coalesced_jobs);
      ("max_epoch_jobs", Stats.Int s.max_epoch_jobs);
      ("max_epoch_width", Stats.Int s.max_epoch_width);
      ("disjoint_epochs", Stats.Int s.disjoint_epochs);
      ("crossing_jobs", Stats.Int s.crossing_jobs);
      ("max_wave_layers", Stats.Int s.max_wave_layers);
      ("recon_delta", Stats.Float s.recon_delta);
      ("recon_power", Stats.Float s.recon_power);
      ("job_connects", Stats.Int s.job_connects);
      ("job_writes", Stats.Int s.job_writes);
      ("placed_jobs", Stats.Int s.placed_jobs);
      ("remaps", Stats.Int s.remaps);
      ("total_power", Stats.Float (total_power s));
      ("sojourn_p50_ms", Stats.Float (1000.0 *. s.sojourn_p50));
      ("sojourn_p99_ms", Stats.Float (1000.0 *. s.sojourn_p99));
    ]
  ::
  (match Service.cache_stats t.svc with
  | Some cs -> Plan_cache.sections cs
  | None -> [])

let cache_stats t = Service.cache_stats t.svc
let domains t = Service.domains t.svc
