(** Static width-minimizing leaf placement.

    Given a demand {!Profile}, search PE → leaf permutations for one
    that minimizes the {e expected width} of the profile: the
    capacity-weighted maximum directed-link congestion when PE [p] is
    embedded at leaf [leaf m p] (the weighted analogue of
    {!Cst.Compat.width}, whose integer form it upper-bounds —
    the integer width of any set equals the ceiling of its unit-weight
    float width, so a float-width improvement never loses integer
    rounds).  By Theorem 5 rounds equal width, so the saving is both
    latency and switch power.

    The search is a recursive balanced partition over the level table:
    at each internal node the current PE group is split into chunks
    matching the children's leaf counts, minimizing inter-chunk demand
    (the weight forced through the children's uplinks) by
    Kernighan–Lin-style pairwise swaps; a global hill-climbing
    refinement then polishes the true capacity-weighted objective.  The
    returned mapping provably never regresses: the identity mapping is
    kept whenever the candidate fails to beat it. *)

type cost = {
  width : float;  (** capacity-weighted max directed-link congestion *)
  load : float;  (** capacity-weighted total link load (tiebreak) *)
}

val tree_leaves : ?shape:Cst.Shape.t -> Profile.t -> int
(** Leaf count of the tree the optimizer targets: the shape's leaves,
    or the smallest adequate power of two ([>= 2]).  The returned
    mapping and [Mapping.apply_set] results live in this leaf space. *)

val cost : ?shape:Cst.Shape.t -> Profile.t -> Mapping.t -> cost
(** Expected width and load of a profile under a mapping.  The mapping
    must span exactly [tree_leaves ?shape profile] slots.  For a
    profile holding a single set at weight 1 on a unit-capacity shape,
    [cost.width] equals the integer {!Cst_comm.Width.width} of the
    mapped set. *)

val expected_width : ?shape:Cst.Shape.t -> Profile.t -> Mapping.t -> float
(** [(cost ...).width]. *)

val optimize : ?shape:Cst.Shape.t -> ?refine_passes:int -> Profile.t -> Mapping.t
(** Optimized mapping over [tree_leaves ?shape profile] slots.
    Guarantee: [expected_width profile (optimize profile)] is never
    greater than [expected_width profile (identity)].
    [refine_passes] bounds the global polish loop (default 3). *)

val width_of_set : ?shape:Cst.Shape.t -> Mapping.t -> Cst_comm.Comm_set.t -> int
(** Integer width ({!Cst.Compat.width} on the shape's tree,
    {!Cst_comm.Width.width} on binary) of a set after applying the
    mapping. *)
