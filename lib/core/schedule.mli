(** The result of scheduling a communication set on a CST. *)

type round = {
  index : int;  (** 1-based round number *)
  sources : int list;  (** PEs that wrote this round *)
  dests : int list;
  deliveries : (int * int) list;  (** realized (src, dst) transfers *)
}

type power = {
  total_connects : int;
      (** physical driver transitions — charitable accounting *)
  total_disconnects : int;
  total_writes : int;
      (** configuration-register installations — the paper's power units:
          per-round schedulers pay one per demanded connection per round,
          the CSA only pays for actual changes *)
  max_connects_per_switch : int;  (** the Theorem 8 quantity *)
  max_writes_per_switch : int;
      (** O(1) under CSA, O(w) under per-round scheduling *)
  max_events_per_switch : int;
  ledger : Cst.Power_meter.t;
      (** the sparse per-switch counts: only the switches the run
          touched; {!per_switch_connects} and its siblings give the
          dense views *)
}

type source = { log : Cst.Exec_log.t; from : int; upto : int }
(** The log range [[from, upto)] a schedule was derived from.  [upto]
    is fixed at derivation, so events appended to the log later — the
    next wave or phase on a shared net — never reach the schedule.
    {b Contract:} the first [upto] events of [log] are not rewritten
    after derivation (config state is replayed from position 0, not
    from [from]); appends are fine. *)

type t = {
  leaves : int;
  set : Cst_comm.Comm_set.t;
  width : int;  (** link congestion of the input set *)
  rounds : round array;
  power : power;
  cycles : int;
      (** synchronous clock cycles: one per tree level for Phase 1, one
          per level plus a transfer cycle per round *)
  source : source option;
      (** where {!fold_configs} streams the configuration snapshots
          from; [None] for a schedule derived with
          [~keep_configs:false] *)
}

val of_log :
  ?from:int ->
  ?upto:int ->
  ?keep_configs:bool ->
  set:Cst_comm.Comm_set.t ->
  topo:Cst.Topology.t ->
  cycles:int ->
  Cst.Exec_log.t ->
  t
(** Derive a schedule from a log range (default: the whole log as it
    stands): rounds and deliveries from one
    [Cst.Exec_log.fold_rounds ~snapshots:false] pass, the sparse power
    ledger from {!Cst.Power_meter.of_log} and the width from
    {!Cst.Compat.width}.  Both run on per-domain scratch, so once a
    domain has derived a schedule on a binary tree of this size, a small
    job allocates nothing tree-sized.  No configuration is copied:
    [keep_configs] (default true) retains the log range as [source], in
    O(1); [false] retains nothing, so {!fold_configs} folds no round.
    [cycles] stays caller-supplied because the synchronous-cycle
    formula is a property of the producer (the message-passing engine
    pays an extra broadcast sweep).  This is the only constructor the
    producers use. *)

val fold_configs :
  t ->
  init:'a ->
  f:('a -> int -> (int * Cst.Switch_config.t) list -> 'a) ->
  'a
(** [fold_configs t ~init ~f] replays the schedule's log range and
    calls [f acc index live] once per logged round, in order, where
    [live] is the live (merged) configuration of every switch that is
    non-empty after round [index]'s reconfiguration, ascending by node —
    connections carried over from earlier runs on a shared net
    included.  One round's snapshot is built at a time, so a consumer
    that walks every round holds O(live), never O(rounds × live).
    O(upto) per call.  Folds nothing when [t.source] is [None].
    Capacity-engine runs (non-binary shapes) log no [Connect] events,
    so their snapshots are empty. *)

val num_rounds : t -> int

val all_deliveries : t -> (int * int) list
(** Concatenated over rounds, sorted by source. *)

val deliveries_per_round : t -> int array

val power_of_meter : Cst.Power_meter.t -> power
(** The meter's summary, carrying the meter as its ledger.  O(1). *)

val per_switch_connects : power -> int array
(** Dense view of the ledger, built on demand: indexed by node id,
    length [num_nodes + 1] of the largest tree combined into the record
    (index 0 unused).  O(num_nodes) per call. *)

val per_switch_writes : power -> int array
val per_switch_disconnects : power -> int array

val zero_power : num_nodes:int -> power
(** Neutral element of {!combine_power}. *)

val combine_power : power -> power -> power
(** Componentwise combination for multi-part schedules (waves, mixed
    orientations, traffic phases): the ledgers add switch by switch
    ({!Cst.Power_meter.add}; the dense views of different tree sizes
    are padded), and the totals and per-switch maxima are those of the
    sum — a switch busy in both parts can exceed either part's
    maximum.  O(touched switches). *)

val mirror_power : Cst.Topology.t -> power -> power
(** Re-expresses the ledger of a schedule computed on the mirrored tree
    in original node coordinates ({!Cst.Topology.mirror_node}); totals
    and maxima are reflection-invariant. *)

val pp_round : Format.formatter -> round -> unit
val pp : Format.formatter -> t -> unit
