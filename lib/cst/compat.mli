(** Link-level compatibility and width of communications (paper §1).

    A communication uses the up links from its source to the LCA and the
    down links from the LCA to its destination.  A link of capacity [c]
    carries [c] circuits per round (1 everywhere on the binary tree), so
    a set fits in one round iff no directed link carries more than its
    capacity, and the set's {e width} — the largest count on one
    directed link, ceiled by that link's capacity — is the number of
    rounds it needs (Theorem 5).  Schedules, the verifier, placement's
    integer widths and stream admission all read this one width rule
    here. *)

type dir = Up | Down

val link_footprint : Topology.t -> Cst_comm.Comm.t -> (int * dir) list
(** Directed links used by the communication's unique tree path: [(v, Up)]
    is the link from [v] to its parent, [(v, Down)] the reverse. *)

val conflict : Topology.t -> Cst_comm.Comm.t -> Cst_comm.Comm.t -> bool
(** The two communications share a directed link. *)

val is_compatible : Topology.t -> Cst_comm.Comm.t list -> bool
(** No directed link carries more communications than its capacity (on
    unit-capacity trees: none is used twice). *)

val max_congestion : Topology.t -> Cst_comm.Comm.t list -> int
(** Maximum number of communications over one directed link, capacities
    ignored; agrees with {!Cst_comm.Width} (cross-checked in tests). *)

val width : Topology.t -> Cst_comm.Comm_set.t -> int
(** Capacity-weighted width; 0 for the empty set.  {!Cst_comm.Width.width}
    on its per-domain scratch on binary trees, a fresh {!Load} elsewhere.
    Raises [Invalid_argument] if the set has more PEs than leaves. *)

(** Per-link counts that sets are charged into one at a time; the width
    of everything charged reads in O(1). *)
module Load : sig
  type t

  val create : Topology.t -> t

  val charge : t -> Cst_comm.Comm_set.t -> unit
  (** O(M · levels).  Raises [Invalid_argument] if the set has more PEs
      than leaves. *)

  val width : t -> int
  (** Width of the union of the sets charged since the last {!clear}. *)

  val clear : t -> unit
  (** Empties the load in O(links charged). *)
end
