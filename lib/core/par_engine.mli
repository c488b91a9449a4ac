(** Segment-parallel execution of the message-passing engine.

    A right-oriented well-nested set factors into independent top-level
    blocks ({!Cst_comm.Decompose.blocks}): each block's communications
    use only links of the subtree rooted at its aligned interval's node,
    and Phase 1 reports zero endpoint counts above every block root — so
    running {!Engine.run} on each block's own [align]-leaf tree is
    event-for-event the block's share of the sequential full-tree run.
    This module runs the blocks (concurrently on [domains > 1]), rebases
    each per-block log to its true leaf offset
    ({!Cst.Exec_log.rebase}) and merges them round-by-round
    ({!Cst.Exec_log.merge}) into a single log that is byte-identical —
    same {!Cst.Exec_log.digest}, same {!Schedule.of_log}, same
    {!Cst.Power_meter.of_log}, same
    {!Cst.Exec_log.driver_alternations} — to the sequential engine's, so
    Theorems 4/5/8 remain facts about the merged log.

    Latency becomes O(largest block) on real cores; on a single core the
    path costs only the decomposition and the merge on top of the
    sequential engine (benchmarked and gated, see EXPERIMENTS.md).

    On a non-binary topology blocks align to the shape's real subtree
    spans ([Decompose.blocks ~spans]), each block runs through
    {!Cap_engine} in absolute coordinates on the shared topology (rebase
    is a binary-subtree congruence), and the merged log is
    digest-identical to the whole-set capacity run: per-round greedy
    admission decomposes exactly over link-disjoint blocks. *)

val decompose :
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (Cst_comm.Decompose.block list, Csa.error) result
(** Validate the set against the topology and the engine's input
    contract with the check every producer shares ([Sched_error.check]:
    size, then right-orientation and well-nestedness — the same
    [Csa.error]s {!Engine.run} reports) and partition it into its
    independent top-level blocks. *)

val run_block :
  ?small:Cst.Topology.t ->
  Cst.Topology.t ->
  Cst_comm.Decompose.block ->
  (Cst.Exec_log.t, Csa.error) result
(** Run the sparse engine on one block — the localized set on an
    [align]-leaf tree — and rebase the resulting single-run log into
    [topo]'s coordinates at the block's leaf offset.  [?small] supplies
    the [align]-leaf topology when the caller already has one (it is
    created otherwise); {!run} shares one per distinct align size. *)

val merge_blocks :
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  Cst.Exec_log.t list ->
  Schedule.t * Engine.stats
(** Merge already-rebased per-block logs (ascending block order, e.g.
    from {!run_block} or {!Plan.relocate} of a cached plan) into [?log]
    (or a fresh log), derive the schedule of the whole [set] from the
    merged range — one derivation for all the blocks — and take the
    hardware stats for [topo] from {!Cap_engine.stats_for}, where
    [rounds] is the maximum block round count: the modeled hardware
    still clocks every level and exchanges a message on every link each
    round, regardless of how the scheduling work was computed. *)

val run :
  ?domains:int ->
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (Schedule.t * Engine.stats, Csa.error) result
(** [decompose] + per-block {!run_block} + {!merge_blocks}.  [domains]
    (default 1) caps the worker domains spawned for the block runs; with
    [domains:1] (or a single block) everything runs on the calling
    domain.  The outcome — schedule, log digest, stats — is identical
    for every domain count and identical to {!Engine.run}'s.  On error,
    the first failing block (in block order) wins; the error carries
    block-local coordinates. *)
