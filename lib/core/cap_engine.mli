(** Capacity-aware scheduler for generalized topologies.

    The CSA's 3-sided switch protocol ({!Phase1}/{!Round}/[Cst.Net]) is
    intrinsically binary ({!Phase1.run} rejects any other shape); on
    k-ary and capacity-weighted fat-tree shapes
    scheduling is done by this explicit greedy circuit allocator
    instead: every round it scans the undelivered communications in
    source order and admits each one whose leaf-to-leaf path has a free
    lane on every directed link (a capacity-[c] link carries [c]
    simultaneous circuits).  On the bench's nested traces a set of
    capacity-weighted width [w] ({!Cst.Compat.width}) completes
    in exactly [w] rounds — Theorem 5 divided by the oversubscription
    ratio.

    Emitted logs follow the standard single-run grammar with switch
    reconfiguration expressed as [Write_config {node; count}] events
    ([count] = newly installed circuit segments under lazy carry-over;
    the packed [Connect]/[Disconnect] words cannot describe a fanout-k
    crossbar).  All log derivations — digest, power meter, schedule,
    segment merge — treat [Write_config] as a config event, so they
    work unchanged.  Binary callers never come here: {!Csa.run} and
    {!Engine} dispatch on [Cst.Topology.is_binary]. *)

type stats = {
  cycles : int;  (** modeled clock cycles, demand collection included *)
  control_messages : int;  (** modeled per-link demand/grant words *)
  max_message_words : int;
  state_words_per_switch : int;
}

val stats_for : Cst.Topology.t -> rounds:int -> stats
(** The modeled hardware's charges for a [rounds]-round run on [topo],
    in closed form: {!Cst.Topology.engine_cost}'s cycles and messages,
    five words of switch state, and two-word messages — four-word ones
    on the binary shape once a round runs ({!Downmsg.words}).  The one
    source of the record for this engine and {!Par_engine.merge_blocks};
    {!Engine} counts its own charges, which its tests check against
    {!Cst.Topology.engine_cost}. *)

val run :
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (Schedule.t * stats, Sched_error.t) result
(** Schedule a well-nested set on any shape.  Appends the run to
    [?log] (or a private log) and derives the schedule from it.  Its
    streamed config snapshots ({!Schedule.fold_configs}) are empty
    (crossbar state is not representable as [Switch_config.t]);
    deliveries, rounds, width and power are all populated. *)

val run_exn :
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  Schedule.t * stats

val run_log :
  log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (stats, Sched_error.t) result
(** [run] without the schedule, for callers that consume the log
    directly (the segment-parallel engine merges per-block logs). *)
