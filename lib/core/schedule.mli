(** The result of scheduling a communication set on a CST. *)

type round = {
  index : int;  (** 1-based round number *)
  sources : int list;  (** PEs that wrote this round *)
  dests : int list;
  deliveries : (int * int) list;  (** realized (src, dst) transfers *)
  configs : (int * Cst.Switch_config.t) array;
      (** live (merged) configuration of every switch whose configuration
          is non-empty after this round's reconfiguration; empty array when
          the run did not keep configurations *)
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
  per_switch_connects : int array;  (** indexed by node id *)
  per_switch_writes : int array;
  per_switch_disconnects : int array;
}

type t = {
  leaves : int;
  set : Cst_comm.Comm_set.t;
  width : int;  (** link congestion of the input set *)
  rounds : round array;
  power : power;
  cycles : int;
      (** synchronous clock cycles: one per tree level for Phase 1, one
          per level plus a transfer cycle per round *)
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
(** Derive a schedule from a log range: rounds, deliveries and config
    snapshots from {!Cst.Exec_log.fold_rounds}, power from
    {!Cst.Power_meter.of_log}.  [cycles] stays caller-supplied because
    the synchronous-cycle formula is a property of the producer (the
    message-passing engine pays an extra broadcast sweep).  This is the
    only constructor the producers use. *)

val num_rounds : t -> int

val all_deliveries : t -> (int * int) list
(** Concatenated over rounds, sorted by source. *)

val deliveries_per_round : t -> int array

val power_of_meter : Cst.Power_meter.t -> power
(** The meter's summary.  O(1): the per-switch arrays are the meter's
    own, not copies. *)

val zero_power : num_nodes:int -> power
(** Neutral element of {!combine_power}. *)

val combine_power : power -> power -> power
(** Componentwise combination for multi-part schedules (waves, mixed
    orientations, traffic phases): totals add, per-switch maxima take the
    max of the two parts' maxima, per-switch arrays add pointwise (arrays
    of different lengths are padded). *)

val mirror_power : Cst.Topology.t -> power -> power
(** Re-expresses per-switch arrays of a schedule computed on the mirrored
    tree in original node coordinates ({!Cst.Topology.mirror_node});
    totals and maxima are reflection-invariant. *)

val pp_round : Format.formatter -> round -> unit
val pp : Format.formatter -> t -> unit
