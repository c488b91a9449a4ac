(** Message-passing execution of the CSA.

    The functional scheduler ({!Csa}) is the specification; this engine
    executes the same algorithm as the paper's hardware would: nodes
    communicate only through explicit mailboxes, one tree level per clock
    cycle, and every switch decision is taken by {!Round.configure} from
    the switch's own registers and its single incoming message.  The
    engine therefore demonstrates the locality claim and measures the
    quantities of Theorem 5: cycles, message count and message size.

    {!run} is a sparse-frontier engine on the workspace the spec also
    runs on ({!Round.with_workspace}): Phase 1 and the pending counters
    are {!Round.prepare}, and each Phase-2 down sweep follows an
    explicit frontier of nodes that hold a message or still own an
    unscheduled match — {!Round.sweep}'s rule, unrolled into a loop —
    so a round costs O(active paths * depth) of simulator time instead
    of O(n log n).  A switch is reconfigured as the frontier reaches
    it, so the engine's log lists a round's switches in visit order
    where the spec's lists them in node order; the digest does not see
    the difference.  The engine charges Phase 1 ([levels + 1] cycles,
    [2 * (leaves - 1)] two-word messages) and each round in closed form,
    skipped switches' null messages included.

    Tests (test/test_engine_equiv.ml) assert that the engine's schedule
    is identical, round for round, to {!Csa.run}'s — sources, dests,
    deliveries, configuration snapshots, power and log digest — that
    its digest equals the unpruned reference spec's, which shares
    neither sweep's pruning, and that its cycles and control messages
    equal {!Cst.Topology.engine_cost}.

    On a non-binary topology every entry point delegates to
    {!Cap_engine} — the 3-sided message protocol is binary-only — so
    engine and spec runs remain log-identical on every shape. *)

type stats = Cap_engine.stats = {
  cycles : int;  (** total clock cycles, Phase 1 included *)
  control_messages : int;  (** messages exchanged over tree links *)
  max_message_words : int;  (** largest message, in words — a constant *)
  state_words_per_switch : int;  (** switch storage, in words — 5 *)
}

val run :
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (Schedule.t * stats, Csa.error) result
(** Sparse-frontier engine.  [Error (Stalled _)] signals a no-progress
    round — impossible for well-nested input.  The run appends to
    [?log] (or a private log) and the schedule is derived from it. *)

val run_exn :
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  Schedule.t * stats

val run_log :
  log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (stats, Csa.error) result
(** [run] without the schedule: simulates into [log] and returns only
    the hardware statistics.  For callers that consume the log directly
    — the segment-parallel engine runs one of these per block and
    derives a single schedule from the merged log, so per-block
    schedule construction would be pure waste. *)
