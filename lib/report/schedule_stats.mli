(** Post-hoc analysis of schedules: occupancy and link utilization.

    Complements the power ledger with the traffic-engineering view: how
    busy the rounds are and how often each directed link carries data —
    the quantities a NoC designer reads off a schedule. *)

type link_use = { node : int; dir : Cst.Compat.dir; rounds_used : int }

val link_utilization : ?topo:Cst.Topology.t -> Padr.Schedule.t -> link_use list
(** Every directed link used at least once, by descending use.  A link's
    use count never exceeds the round count; links at width-saturated
    positions reach it exactly.  Paths are walked through [topo]'s
    parent arithmetic — any fanout, any shape; omitted, the schedule's
    tree is assumed to be the classic binary one on [sched.leaves]. *)

val max_link_use : ?topo:Cst.Topology.t -> Padr.Schedule.t -> int
(** Highest entry of {!link_utilization}; equals the set's width for CSA
    schedules on unit-capacity links (each round drains every saturated
    link once), and up to [cap] times the round count on a capacity-[cap]
    fat-tree link. *)

type occupancy = {
  rounds : int;
  comms : int;
  mean_per_round : float;
  max_per_round : int;
  min_per_round : int;
}

val occupancy : Padr.Schedule.t -> occupancy

val per_round_table : Padr.Schedule.t -> Table.t
(** Columns: round, communications, live switch connections at the end
    of that round, streamed from the schedule's log
    ({!Padr.Schedule.fold_configs}).  The last column reads 0 for a
    schedule that retains no log. *)
