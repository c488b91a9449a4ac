(** Multicore batch-scheduling service.

    Every entry point of the repository used to schedule one communication
    set at a time on one core, each behind a slightly different API and
    error convention.  This module is the single front door: a {!job}
    names a set, a registry algorithm and an execution engine; the service
    shards submitted jobs across a pool of OCaml 5 domains (a hand-rolled
    [Domain] + [Mutex]/[Condition] work queue, no dependencies) and
    returns id-ordered {!outcome}s carrying a schedule digest, the round
    and cycle counts and the full power ledger.

    {2 Determinism}

    Scheduling a job is a pure function of the job alone — no scheduler in
    the repository consults global mutable state — so the outcome list is
    a function of the submitted jobs only, never of the domain count or of
    completion order: [run ~domains:1 jobs] and [run ~domains:8 jobs] are
    byte-identical under {!outcome_to_string} (property-tested).

    {2 Dispatch}

    The service dispatches through {!Cst_baselines.Registry} capability
    records instead of ad-hoc name matches:
    - a right-oriented well-nested set runs the algorithm directly;
    - a crossing set runs directly when the algorithm [supports
      `Arbitrary], is covered by CSA waves when [via_waves] is set, and is
      otherwise rejected with the typed well-nestedness violation;
    - a mixed-orientation set requires [via_waves] ({!Padr.Waves}
      decomposes by orientation);
    - [Message_passing] requires [engine_available] ({!Padr.Engine}).

    {2 Plan cache}

    Well-nested runs are memoized in a pool-wide byte-bounded LRU
    ({!Plan_cache}) keyed by the set's structural signature
    ({!Cst.Canon}), the algorithm and the tree size.  A job congruent to
    an earlier one — same shape, possibly translated along the leaves —
    replays the frozen plan ({!Padr.Plan.replay}) instead of
    re-scheduling; replay is byte-identical to a fresh run (same log
    digest, same power totals, same rounds), so cached outcomes are
    indistinguishable from uncached ones under {!outcome_to_string}.
    The [cache] field of {!job_result} tells which path served the job;
    it is deliberately excluded from the canonical serialization because
    hit/miss patterns race across domain counts.  Disable with
    [~cache:false] on {!create}/{!run}.

    Passing [~store] (a {!Plan_store} directory handle) attaches a
    persistent disk tier below the memory cache: evictions spill to
    disk, misses fault from it, and {!shutdown} flushes the resident
    working set — a pool reopened against the same directory replays
    where a fresh one recompiles (the cold-start experiment in
    EXPERIMENTS.md).  Correctness is unchanged: every fault-in is
    digest-verified by the codec, and a corrupt or missing file is just
    a miss.

    {2 Fault isolation}

    A failing job — unknown algorithm, capability mismatch, scheduler
    error, even an exception escaping a scheduler — produces an [Error]
    outcome on its own job id.  Workers never die and the queue is never
    poisoned. *)

type engine = Spec | Message_passing | Segmented
(** [Spec]: the functional scheduler ([Registry.algo.run]).
    [Message_passing]: the mailbox-level engine ({!Padr.Engine}), which
    additionally reports control-message statistics.
    [Segmented]: the segment-parallel engine path
    ({!Padr.Par_engine}) — the set's independent top-level blocks are
    scheduled separately (each consulting the plan cache under its own
    signature) and their logs merged; outcomes are byte-identical to
    [Message_passing]'s, with [blocks]/[block_hits] reporting the
    decomposition. *)

type job = {
  id : int;  (** caller-chosen; outcomes are ordered by it *)
  set : Cst_comm.Comm_set.t;
  algo : string;  (** registry name, e.g. ["csa"] *)
  engine : engine;
  leaves : int option;
      (** CST size override; default: smallest adequate power of two *)
  shape : Cst.Shape.t option;
      (** topology override: the job runs on
          [Cst.Topology.of_shape shape].  Non-binary shapes dispatch
          only through {!Cst_baselines.Registry.capability.shape_generic}
          algorithms (the CSA) — every other algorithm answers
          [Unsupported] — and crossing or mixed sets are not wave-covered
          on them. *)
  placement : Cst_placement.Mapping.t option;
      (** demand-aware PE → leaf permutation ({!Cst_placement}).  The
          set is rewritten through the mapping before dispatch, so
          canon signatures, plan-cache keys, widths and digests are all
          those of the {e placed} set — the outcome is byte-identical
          to running the permuted set directly.  The mapping must span
          exactly [job_leaves] slots ([Unsupported] otherwise). *)
}

val job : ?engine:engine -> ?leaves:int -> ?shape:Cst.Shape.t ->
  ?placement:Cst_placement.Mapping.t -> id:int ->
  algo:string -> Cst_comm.Comm_set.t -> job
(** Convenience constructor; [engine] defaults to [Spec].  [leaves] and
    [shape] are exclusive ([Invalid_argument] when both are given). *)

val job_leaves : job -> int
(** The CST size the job will run on: the shape's leaf count when
    [shape] is given, else [leaves] when given, otherwise the smallest
    adequate power of two (min 2).  Unvalidated: see {!check_leaves}. *)

val max_leaves : int
(** The largest tree a job may request, [2^20] leaves, whether by
    [leaves] or by [shape]: the execution log ({!Cst.Exec_log}) packs
    PE numbers and switch ids into 20 bits, both stay below the leaf
    count, and no leaf node id is ever logged. *)

type error =
  | Unknown_algo of string
  | Unsupported of { algo : string; what : string }
      (** capability mismatch, e.g. a message-passing request for an
          algorithm without an engine, or left-oriented members for one
          that cannot be wave-covered *)
  | Too_large of { n : int; leaves : int }
  | Bad_leaves of int
      (** a leaf count no tree has: above {!max_leaves} (an override, a
          shape, or the default size of a set over more PEs than that),
          or an override that is not a power of two from 2; no topology
          is built for it *)
  | Not_well_nested of Cst_comm.Well_nested.violation
  | Stalled of { round : int; remaining : int }
  | Crashed of string
      (** an exception escaped a scheduler; the pool survives and the
          exception text is attached to the offending job's id *)

val check_leaves : job -> (int, error) result
(** [Ok (job_leaves job)] when a tree of that size exists — for a
    [shape] job, when it has at most {!max_leaves} leaves — else
    [Error (Bad_leaves _)].  {!run_job} rejects such a job before
    building any topology; {!Stream} builds a tree's topology and
    link load only from a checked count. *)

val error_of_csa : Padr.error -> error
(** Embeds the scheduler's error type ({!Padr.Csa.error}). *)

val pp_error : Format.formatter -> error -> unit

type detail =
  | Sched of Padr.Schedule.t  (** single well-nested schedule *)
  | Waves of Padr.Waves.t  (** wave cover of a crossing or mixed set *)

type cache_status =
  | Hit  (** served by replaying a cached plan *)
  | Miss  (** scheduled fresh; the plan was frozen into the cache *)
  | Bypass
      (** cache disabled, or the path is not cacheable (waves, crossing
          sets, errors) *)

type job_result = {
  algo : string;
  digest : string;
      (** structural digest of the execution log
          ({!Cst.Exec_log.digest}) — equal digests mean the hardware did
          the same thing, event for event *)
  width : int;
  waves : int;  (** 1 for a direct schedule *)
  rounds : int;
  cycles : int;
  control_messages : int;  (** engine jobs only; 0 under [Spec] *)
  power : Padr.Schedule.power;  (** full ledger, per-switch arrays included *)
  cache : cache_status;
      (** which path served this job; excluded from
          {!outcome_to_string} (hit/miss patterns race across domain
          counts).  For [Segmented] jobs: [Hit] when every block was
          served from the cache, [Miss] otherwise. *)
  blocks : int;
      (** [Segmented] jobs: number of independent top-level blocks the
          set decomposed into; 0 on every other path *)
  block_hits : int;
      (** [Segmented] jobs: how many of those blocks were served by
          relocating a cached plan's log ({!Padr.Plan.relocate}) — the
          job's schedule is derived once, from the merged log; excluded
          from {!outcome_to_string} like [cache] *)
  detail : detail;
}

type outcome = { job_id : int; result : (job_result, error) result }

val run_job :
  ?cache:Plan_cache.t * int -> job -> (job_result, error) result
(** The per-job function every worker runs; exposed for direct
    (in-process, single-core) clients and for tests.  [cache] is the
    shared plan cache paired with the calling worker's counter index;
    omitted, every job bypasses the cache. *)

val outcome_to_string : outcome -> string
(** Canonical one-line serialization (digest, counts, power totals) used
    for byte-identical determinism comparison; excludes [detail]. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 The service}

    The streaming interface is the primary one: {!create} spawns the
    pool, {!submit} enqueues jobs as they arrive (blocking when the
    bounded channel is full — backpressure), and completed outcomes are
    either collected by {!drain}, an id-ordered barrier, or {e pushed}
    through the [~on_outcome] callback.  {!shutdown} closes the queue
    and waits for the workers.  Worker domains outlive their pool: a
    pool's domains park when it shuts down and the next pool runs on
    them before it spawns any, so a short-lived pool pays no domain
    start-up; at most [Domain.recommended_domain_count ()] stay parked,
    and parked domains do not keep the process from exiting.  The
    closed-batch {!run} below is a
    thin wrapper (create / submit all / drain / shutdown) kept as the
    convenient one-call form; {!run_job} is the shared per-job dispatch
    both it and the workers go through.  One submitter and one consumer
    at a time; workers are internal.

    {!Stream} builds epoch coalescing and admission policies on top of
    this interface; [cstool serve] exposes it as a line protocol. *)

type t

val create :
  ?domains:int -> ?queue_capacity:int -> ?cache:bool -> ?store:Plan_store.t ->
  ?on_outcome:(outcome -> unit) -> unit -> t
(** Starts the pool: [domains] worker domains (default
    [Domain.recommended_domain_count ()], min 1), a submission channel
    bounded by [queue_capacity] (default 64), the pool-wide plan cache
    unless [~cache:false] (bounded at {!Plan_cache.create}'s default
    32 MiB), [store] its persistent disk tier.

    [on_outcome] switches the pool to push delivery: each completed
    outcome is handed to the callback {e on the worker domain that ran
    the job}, outside every pool lock, before the completion counter
    moves — a {!drain} barrier therefore also orders every callback
    before its return.  Completion order is nondeterministic; the
    callback must synchronize its own state and must not block on the
    pool.  With [on_outcome] set, outcomes are delivered {e only}
    through it: {!drain} still waits for quiescence but returns [[]]. *)

val domains : t -> int

val cache_stats : t -> Plan_cache.stats option
(** Aggregate and per-domain hit/miss/eviction counters of the pool's
    plan cache, including the disk tier's counters when a store is
    attached; [None] when the pool was created with [~cache:false].
    Safe to call while jobs are in flight.  Render with
    {!Plan_cache.sections} / {!Plan_cache.pp_stats}. *)

val submit : t -> job -> unit
(** Blocks while the submission channel is full (backpressure).  Raises
    [Invalid_argument] after {!shutdown}. *)

val drain : t -> outcome list
(** Barrier: waits for all jobs submitted so far, returns the outcomes
    not returned by an earlier drain, sorted by job id (ties by
    submission order).  The service remains usable afterwards.  Returns
    [[]] on a pool created with [~on_outcome] (delivery already
    happened). *)

val shutdown : t -> unit
(** Closes the submission channel, lets workers finish queued jobs and
    waits for them; their domains park for the next pool.
    Idempotent. *)

(** {2 Closed batches} *)

val run :
  ?domains:int ->
  ?queue_capacity:int ->
  ?cache:bool ->
  ?store:Plan_store.t ->
  job list ->
  outcome list
(** The one-call batch wrapper over the streaming path: [create], submit
    every job, [drain], [shutdown] (pool torn down even on raise).
    Returns one outcome per job, sorted by job id (ties by submission
    order); parameters as on {!create}. *)
