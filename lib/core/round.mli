(** One round of Phase 2: the power-aware switch rule (paper Figure 5).

    {!configure} is the per-switch decision procedure.  It sees only the
    switch's own registers and the parent's message — the locality claimed
    by the paper — and is shared verbatim by the functional scheduler
    ({!Csa}) and the message-passing engine ({!Engine}).

    The rule, covering all four message shapes at once:
    {ol
    {- route an incoming source request: through [l_i -> p_o] if the index
       falls among the remaining left pass-up sources, else through
       [r_i -> p_o] with the index shifted by the left count;}
    {- route an incoming destination request: through [p_i -> r_o] if the
       index (from the right) falls among the remaining right pass-down
       destinations, else through [p_i -> l_o] shifted;}
    {- if matched pairs remain and neither [l_i] nor [r_o] was taken,
       schedule the {e outermost} remaining matched pair with [l_i -> r_o]
       and request its source (left index [sl]) and destination (right
       index [dr]) from the children.}}

    Step 3's outermost-first selection is what makes each output port's
    driver sequence alternate O(1) times (Lemmas 6-7). *)

type decision = {
  config : Cst.Switch_config.t;  (** connections this round requires *)
  to_left : Downmsg.t;
  to_right : Downmsg.t;
  scheduled_matched : bool;  (** consumed one of the switch's [m] pairs *)
}

val configure : Csa_state.t -> Downmsg.t -> decision
(** Mutates the registers (they describe remaining traffic).  Raises
    [Assert_failure] if the parent requests a source or destination the
    subtree does not have — impossible when Phase 1 ran on well-nested
    input. *)

(** {1 The sweep}

    A round is one top-down sweep from the root, on a workspace that
    holds the switches' registers and what the sweep needs besides.
    The sweep enters a child only when the child receives a request
    or its subtree still owns an unscheduled match: any other child
    would make the null decision, and so would every switch below it,
    so skipping it is exact.  A round therefore costs O(active paths ×
    depth), not O(switches).  The unpruned sweep that visits every
    switch is kept in the tests as the reference this one is checked
    against, byte for byte on the log ([test/helpers.ml]). *)

type workspace = {
  states : Csa_state.t array;
      (** switch registers, indexed by internal node id; slot 0 unused *)
  pending : int array;
      (** [pending.(v)]: unscheduled matches left in [v]'s subtree *)
  wants : Cst.Switch_config.t array;
      (** the connections the last sweep required of each switch; empty
          at every switch it did not configure *)
  dirty : int array;
      (** the switches the last sweep configured, bucketed by depth (see
          {!iter_configured}) *)
  dirty_len : int array;  (** bucket sizes, one per switch depth *)
}
(** The scheduling state of one run on a [leaves]-leaf binary tree.
    The spec ({!Csa}) and the message-passing engine ({!Engine}) both
    run on it; every array is written in place, so a round allocates
    nothing tree-sized. *)

val with_workspace : Cst.Topology.t -> (workspace -> 'a) -> 'a
(** [with_workspace topo f] runs [f] on the calling domain's workspace,
    built for [topo]'s leaf count if the domain holds none of that size.
    The workspace is taken out of the domain's slot while [f] runs (a
    nested call builds its own) and put back when [f] returns; if [f]
    raises it is dropped.  The retained memory is O(leaves) of the last
    tree size used. *)

val prepare : workspace -> Cst.Topology.t -> Cst_comm.Comm_set.t -> int
(** Phase 1 on the workspace: {!Phase1.fill} overwrites every switch's
    registers, whatever an earlier run left there, and the pending
    counters are rebuilt from them.  Returns the number of matches to
    schedule (the root's pending count).  Same requirements as
    {!Phase1.fill}. *)

type outcome = {
  sources : int list;  (** PEs that write this round, ascending *)
  dests : int list;  (** PEs that receive this round, ascending *)
  matched_count : int;  (** communications scheduled this round *)
}

val sweep : Cst.Topology.t -> workspace -> outcome
(** One round: resets the wants the previous sweep on this workspace
    left, then sweeps from the root (which always acts on
    [Downmsg.null]), mutating the registers and pending counters and
    recording each configured switch's connections in [wants].  Binary
    topologies only. *)

val iter_configured :
  workspace -> (int -> Cst.Switch_config.t -> unit) -> unit
(** [iter_configured ws f] calls [f node want] on every switch the last
    {!sweep} configured, in ascending node order. *)
