(** The Configuration and Scheduling Algorithm (paper §3).

    Runs Phase 1 once, then Phase 2 rounds until every communication has
    been performed, on the calling domain's workspace
    ({!Round.with_workspace}), which the message-passing engine shares:
    Phase 1 is {!Round.prepare} and each round one pruned {!Round.sweep},
    so a run costs what its active paths touch, not O(switches) per
    round.  Switch reconfiguration is {e lazy} (PADR): a switch's live
    configuration is only touched where the round's decisions require
    it, which is what yields O(1) configuration changes per switch
    (Theorem 8), and only the switches the sweep configured are passed
    to {!Cst.Net.reconfigure_lazy}, in ascending node order — for every
    other switch an empty want is a no-op.  Setting [eager_clear]
    reconfigures every switch to exactly the round's connections,
    clearing everything else — the behaviour the ablation experiment
    contrasts against.  The tests keep the unpruned spec, which sweeps
    and reconfigures every switch every round, and check this one's log
    against it byte for byte ([test/helpers.ml]). *)

type error = Sched_error.t =
  | Too_large of { n : int; leaves : int }
  | Not_well_nested of Cst_comm.Well_nested.violation
  | Stalled of { round : int; remaining : int }
      (** A scheduling round matched nothing while communications remained.
          Impossible for well-nested input (Theorem 4 guarantees progress);
          reported as data so harnesses like [bin/fuzz.ml] can detect a
          broken internal invariant structurally instead of catching
          [Failure _]. *)
(** Re-export of {!Sched_error.t}, the error type shared with
    {!Cap_engine}. *)

val pp_error : Format.formatter -> error -> unit

exception Stall of { round : int; remaining : int }
(** Internal: raised by scheduling loops on a no-progress round and mapped
    to [Error (Stalled _)] at each [run] boundary. *)

val run :
  ?eager_clear:bool ->
  ?net:Cst.Net.t ->
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (Schedule.t, error) result
(** [run topo set] schedules a right-oriented well-nested [set].
    The run is emitted into an execution log (the net's own, or [?log]
    when a fresh net is created — exclusive with [?net]) and the
    returned schedule is derived from it ({!Schedule.of_log}); build a
    narration with [Cst.Trace.of_log] if wanted.
    On a non-binary topology the run is delegated to {!Cap_engine} (the
    3-sided message protocol does not generalize); [?net] is then
    rejected and [eager_clear] ignored.
    Per-round configuration snapshots are streamed from the log on
    demand ({!Schedule.fold_configs}).
    [net] runs the schedule on an existing network whose switch
    configurations persist from earlier runs — the PADR carry-over across
    consecutive communication phases; the reported power is this run's
    share only.  The net's topology must equal [topo]. *)

val run_exn :
  ?eager_clear:bool ->
  ?net:Cst.Net.t ->
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  Schedule.t
