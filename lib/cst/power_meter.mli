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
(** A sparse ledger: the switches the metered range touches, ascending
    by node id, each with its connect, disconnect and write counts, plus
    the totals and per-switch maxima.  A switch whose counts are all
    zero is never held, so a ledger is a canonical function of the
    dense counts and the tree size: ledgers of equal counts on equal
    trees are equal under [=]. *)

val of_log : ?from:int -> ?upto:int -> num_nodes:int -> Exec_log.t -> t
(** Charge every [Connect] / [Disconnect] / [Write_config] event in the
    range to its switch.  Switches live at nodes [1 .. num_nodes]; a
    config event naming any other node raises [Invalid_argument].  The
    pass reads the log's packed words ({!Exec_log.iter_config}) into a
    per-domain scratch of [3 (num_nodes + 1)] counts and a bitset of
    touched switches, then emits the touched switches in order by
    scanning the bitset, zeroing the scratch as it goes: O(events +
    num_nodes / 32), and nothing tree-sized is allocated once the
    domain has metered a tree of this size.  The scratch is reused only
    for a tree of the same size, and a call that raised leaves none
    behind. *)

val zero : num_nodes:int -> t
(** The empty ledger of a tree with nodes [1 .. num_nodes]. *)

val add : t -> t -> t
(** Switch-by-switch sum, sized to the larger tree.  The totals add;
    the maxima are recomputed, since a switch busy in both can exceed
    either's maximum.  O(touched). *)

val remap : (int -> int) -> t -> t
(** Moves every switch [v] to [f v], re-sorting; [f] must be injective
    on the ledger's switches and keep them inside the tree.  Totals and
    maxima are unchanged. *)

val connects : t -> node:int -> int
val disconnects : t -> node:int -> int
val writes : t -> node:int -> int
(** O(log touched); 0 for a switch the ledger does not hold. *)

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

val touched : t -> int
(** Number of switches held. *)

val per_switch_connects : t -> int array
(** Dense view, built on demand: indexed by node id, length
    [num_nodes + 1] (index 0 unused).  A fresh array per call. *)

val per_switch_writes : t -> int array
val per_switch_disconnects : t -> int array

val pp : Format.formatter -> t -> unit
