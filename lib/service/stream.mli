(** Online streaming scheduler: epoch coalescing over the domain pool.

    {!Service} executes jobs; this module decides {e when}.  Jobs arrive
    over time ({!submit}); instead of dispatching each one immediately,
    the scheduler keeps an {e open epoch} — the queue of jobs that will
    be committed to the circuit together — and asks its
    {!Admission.t} policy on every submission and every {!tick} whether
    to commit now or keep waiting for more arrivals to share the next
    switch reconfiguration.

    {2 Epoch and width math}

    While the epoch is open the scheduler maintains the merged
    link-congestion width of its members incrementally: each admitted
    set is charged into the epoch's {!Cst.Compat.Load} on the epoch's
    tree, whose running capacity-ceiled maximum — exactly the width of
    the union set — reads in O(1) for the policy's [max_width] cap.
    Admission costs O(comms × levels) per job: the load is cleared and
    reused while consecutive epochs share a tree, so a topology and
    its tree-sized tables are built only when the tree changes.
    Theorem 5 (rounds = width) turns the cap into a bound on the
    epoch's service time.  Top-level block intervals
    ({!Cst_comm.Decompose.blocks}) of well-nested members are tracked
    too: an epoch whose members occupy pairwise disjoint aligned
    intervals coalesces for free — merged width = max, not sum
    ([disjoint_epochs] in {!stats}).  Members that are not well-nested
    are admitted as well and counted ([crossing_jobs]); the pool
    wave-covers them.  Jobs for a different tree than the open epoch
    force a commit first — loads on different topologies do not
    align.

    {2 Power model}

    Per-job power (connects + register writes) is read from the
    outcomes and is identical however jobs are batched.  What admission
    changes is reconfiguration: following the δ model ("Costly Circuits,
    Submodular Schedules", PAPERS.md), every committed epoch is charged
    a flat [recon_delta] power units.  [Immediate] pays it once per job;
    a coalescing policy pays it once per epoch — [stats] separates
    [job_connects]/[job_writes] from [recon_power] so the bench can gate
    the δ-aware policy's saving.

    {2 Determinism}

    Committing an epoch submits its member jobs, in arrival order, to
    the inner {!Service} pool — the jobs themselves are not rewritten,
    merged or split, so each outcome (digest included) is byte-identical
    to the same job in a closed batch, under every policy and domain
    count (property-tested in test/test_stream.ml).  Policies only move
    {e when} a job dispatches and how many epochs (hence how much
    reconfiguration power) the trace costs.

    One driver thread submits/ticks/drains; completion timestamps are
    recorded on worker domains via the pool's [on_outcome] hook. *)

type t

val create :
  ?domains:int ->
  ?queue_capacity:int ->
  ?cache:bool ->
  ?store:Plan_store.t ->
  ?policy:Admission.t ->
  ?recon_delta:float ->
  ?clock:(unit -> float) ->
  ?placement:Cst_placement.Auto.t ->
  unit ->
  t
(** Spawns the inner pool ({!Service.create} — first four parameters are
    passed through).  [policy] defaults to {!Admission.Immediate};
    [recon_delta] (default 16.0) is the power charged per committed
    epoch; [clock] (default [Unix.gettimeofday]) is read for arrival,
    commit and completion stamps and fed to the policy — inject a
    manual clock for deterministic tests.  The clock is read from
    worker domains too, so it must be thread-safe.

    [placement] attaches a per-tenant self-adjusting placement layer
    ({!Cst_placement.Auto}): every arriving set is folded into its
    demand profile, the installed mapping may advance between epochs
    (never inside one, so an epoch's members share a mapping and their
    plan-cache canon keys stay congruent), and each admitted job is
    rewritten through the installed mapping before any width math —
    outcomes are byte-identical to submitting the permuted sets
    directly.  Jobs whose explicit [leaves]/[shape] do not match the
    layer's tree pass through unplaced, and a set over more PEs than
    the layer's profile passes through unobserved and unplaced. *)

val submit : t -> Service.job -> unit
(** Stamps the job's arrival, admits it into the open epoch (committing
    the previous epoch first when the tree differs or the policy's
    width cap would be exceeded) and re-evaluates the policy.  Blocks
    only while a commit is flushing into a full pool queue.  Raises
    [Invalid_argument] after {!shutdown}; no exception leaves the
    stream locked. *)

val tick : t -> unit
(** Re-evaluates the policy at the current clock — how time-based
    policies ([Quantum], [Delta_threshold]) commit between arrivals.
    Call from the driver loop; cheap when the epoch stays open. *)

val flush : t -> unit
(** Commits the open epoch unconditionally (no-op when empty). *)

type timing = {
  arrival : float;  (** clock at {!submit} *)
  committed : float;  (** clock when the job's epoch committed *)
  completed : float;  (** clock when the worker finished it *)
  epoch : int;  (** 0-based index of the committing epoch *)
}
(** Timing envelope around a {!Service.outcome}; sojourn is
    [completed -. arrival]. *)

val drain : t -> (Service.outcome * timing) list
(** {!flush}, waits until every submitted job has completed, and returns
    the completed jobs' records sorted like {!Service.drain} (job id,
    ties by submission order), clearing them.  The stream remains
    usable. *)

val shutdown : t -> unit
(** {!flush}, then shuts the inner pool down (queued jobs still
    complete).  Idempotent. *)

type stats = {
  submitted : int;
  completed : int;
  epochs : int;  (** committed so far *)
  coalesced_jobs : int;  (** jobs that shared their epoch (≥2-job epochs) *)
  max_epoch_jobs : int;
  max_epoch_width : int;  (** largest merged width any epoch reached *)
  disjoint_epochs : int;
      (** multi-job epochs whose well-nested members' top-level block
          intervals were pairwise disjoint *)
  crossing_jobs : int;  (** members admitted without a single well-nested
                            plan (wave-covered by the pool) *)
  max_wave_layers : int;
      (** most waves the pool ran for one completed job: the largest
          [waves] among outcomes whose detail is a wave cover *)
  recon_delta : float;
  recon_power : float;  (** [recon_delta *. float epochs] *)
  job_connects : int;  (** Σ over completed jobs (successful outcomes) *)
  job_writes : int;
  placed_jobs : int;
      (** jobs rewritten through a non-identity installed mapping *)
  remaps : int;  (** placement remaps the self-adjusting layer fired *)
  sojourn_p50 : float;  (** seconds, over all completed jobs *)
  sojourn_p99 : float;
}

val stats : t -> stats
val total_power : stats -> float
(** [job_connects + job_writes + recon_power] — the quantity the δ-aware
    policy minimizes. *)

val sections : t -> Stats.t
(** One ["stream"] section (counters above plus [total_power]), then the
    inner pool's plan-cache/store sections when enabled — the serve
    [STATS] reply. *)

val cache_stats : t -> Plan_cache.stats option
val domains : t -> int
