(** Per-switch power accounting (paper §2.3), derived from the
    execution log.

    The paper charges one power unit every time a switch sets a
    connection between an input and an output.  Two flavours are
    tracked:

    {ul
    {- {e connects/disconnects} — physical driver transitions: an output
       acquires a (different) driver, or loses it.  This is the charitable
       accounting under which any scheduler gets credit for a connection
       that happens to persist between rounds.}
    {- {e writes} — configuration-register installations.  A switch that
       cannot prove its configuration carries over must install every
       connection its current round demands; this is what ID-per-round
       scheduling pays (O(w) per switch, paper §1) and what the CSA avoids
       by construction (Lemmas 6-7: contiguous request blocks make
       carry-over a local decision).}}

    Theorem 8 states that under the CSA both counts stay O(1) per switch
    regardless of the set's width.

    A meter is a {e pure derivation} of an {!Exec_log}: {!of_log} is
    the only place in the codebase where power units are charged —
    producers never keep their own counters.  A run on a shared net
    meters just its own events by passing the log cursor recorded at
    the start of the run as [~from]. *)

type t

val of_log : ?from:int -> ?upto:int -> num_nodes:int -> Exec_log.t -> t
(** Charge every [Connect] / [Disconnect] / [Write_config] event in the
    range to its switch.  [num_nodes] sizes the ledger: switches live
    at nodes [1 .. num_nodes].  The totals and per-switch maxima below
    are kept during this one pass, so reading them is O(1). *)

val connects : t -> node:int -> int
val disconnects : t -> node:int -> int
val writes : t -> node:int -> int

val total_connects : t -> int
(** Total physical power units (paper model, charitable accounting). *)

val total_disconnects : t -> int
val total_writes : t -> int

val max_connects_per_switch : t -> int
(** The quantity Theorem 8 bounds by a constant. *)

val max_writes_per_switch : t -> int
(** O(1) under CSA, O(w) under per-round scheduling. *)

val max_events_per_switch : t -> int
(** Connects plus disconnects, maximised over switches. *)

val per_switch_connects : t -> int array
(** Indexed by node id (index 0 unused).  The meter's own array, not a
    copy — a meter is never updated after {!of_log}; do not mutate. *)

val per_switch_writes : t -> int array
val per_switch_disconnects : t -> int array

val pp : Format.formatter -> t -> unit
