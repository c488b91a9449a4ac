(** Scheduling arbitrary communication sets as a sequence of CSA waves.

    Extends the paper beyond well-nested inputs (its conclusion's "other
    communication patterns"): the set is split by orientation (§2.1), each
    part is covered by well-nested layers ({!Cst_comm.Wn_cover}), and each
    layer is one CSA run.  All right-oriented waves share one live network
    and all (mirrored) left-oriented waves another, so the PADR carry-over
    keeps saving configuration writes {e across} waves, not just across
    rounds — and, through {!run}, across calls on a caller's pair. *)

type t = {
  set : Cst_comm.Comm_set.t;
  right_waves : Schedule.t list;
      (** CSA schedules of the right-oriented layers, in execution order *)
  left_waves : Schedule.t list;
      (** CSA schedules of the mirrored left-oriented layers; their PE and
          switch coordinates are mirrored (deliveries are reported in
          original coordinates by {!deliveries}) *)
  rounds : int;  (** total data-transfer rounds over all waves *)
  cycles : int;
  power : Schedule.power;
      (** combined over both networks, left part re-expressed in original
          switch coordinates *)
}

val run :
  right:Cst.Net.t ->
  left:Cst.Net.t ->
  Cst_comm.Comm_set.t ->
  (t, Csa.error) result
(** Schedules the right-oriented layers on [right] and the mirrored
    left-oriented ones on [left], two live networks over one binary
    topology whose configurations carry over between calls.  Rounds,
    cycles and power are this call's share of the nets' logs, so
    successive calls' ledgers combine ({!Schedule.combine_power}) to the
    nets' whole-log meters, [left]'s mirrored. *)

val schedule :
  ?leaves:int ->
  ?log:Cst.Exec_log.t ->
  Cst_comm.Comm_set.t ->
  (t, Csa.error) result
(** {!run} on two fresh networks over a [leaves]-leaf tree (default:
    smallest adequate), both logging to [?log] if given.  Fails only if
    a layer is internally invalid — impossible for valid sets, so in
    practice always [Ok]. *)

val schedule_exn : ?leaves:int -> ?log:Cst.Exec_log.t -> Cst_comm.Comm_set.t -> t

val deliveries : t -> (int * int) list
(** All (src, dst) pairs in original coordinates, sorted; equals the
    set's matching (tested). *)

val num_waves : t -> int

val pp : Format.formatter -> t -> unit
