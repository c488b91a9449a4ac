(** Exact width (directed-link congestion) of a communication set.

    The CST embeds the PEs as leaves of a complete binary tree.  For every
    tree node [v] other than the root there is a full-duplex link between
    [v] and its parent; a communication uses the {e up} direction of that
    link when its source lies in the subtree of [v] and its destination
    does not, and the {e down} direction symmetrically.  The {e width} of a
    set is the maximum number of communications sharing one directed link
    (paper §1); the schedule of a width-[w] set needs at least [w] rounds.

    Nodes are heap-indexed: root is 1, node [v] has children [2v] and
    [2v+1], leaf [p] is node [leaves + p].  [leaves] must be a power of
    two at least [Comm_set.n set]. *)

type crossings = {
  leaves : int;  (** number of leaf slots (power of two) *)
  up : int array;  (** [up.(v)]: communications using link v->parent upward *)
  down : int array;  (** [down.(v)]: communications using parent->v downward *)
}

val crossings : leaves:int -> Comm_set.t -> crossings
(** Per-link congestion in O(M log leaves). *)

val width : leaves:int -> Comm_set.t -> int
(** Maximum entry of {!crossings}; 0 for the empty set.  O(M log
    leaves) on a per-domain scratch that is reset through the links it
    charged, so only the first call at a leaf count allocates the
    tree-sized tables. *)

val width_auto : Comm_set.t -> int
(** {!width} with [leaves] = smallest adequate power of two. *)

val crossings_on : parent:int array -> first_leaf:int -> Comm_set.t -> crossings
(** Per-link congestion on an arbitrary tree given as a parent table:
    [parent.(v)] is the parent of node [v] (slots 0, 1 unused, ids
    increase parent-to-child as in BFS numbering) and the leaves are the
    contiguous tail [first_leaf .. Array.length parent - 1], leaf [p] at
    [first_leaf + p].  With the binary heap parent table this equals
    {!crossings}.  The returned [up]/[down] arrays are indexed by node
    id. *)

val width_on :
  parent:int array -> first_leaf:int -> cap:int array -> Comm_set.t -> int
(** Capacity-weighted width: [max] over non-root nodes [v] of
    [ceil (up v / cap.(v))] and [ceil (down v / cap.(v))], where
    [cap.(v)] is the capacity of the [v]-to-parent link.  A capacity-[c]
    link admits [c] simultaneous circuits per round, so a width-[w] set
    needs [w] rounds (Theorem 5 generalized: the bound divides by the
    oversubscription ratio).  All-ones [cap] recovers {!width}. *)

val check_against_naive : leaves:int -> Comm_set.t -> bool
(** Recomputes congestion by interval containment per node (O(M·leaves))
    and compares with {!crossings}; used by tests. *)

type klass =
  | Matched  (** source in left child subtree, destination in right *)
  | Source_up  (** source inside, destination outside: uses the up link *)
  | Dest_down  (** destination inside, source outside: uses the down link *)
  | Internal  (** both endpoints strictly inside one child subtree *)
  | External  (** does not touch this subtree *)

val classify : lo:int -> mid:int -> hi:int -> Comm.t -> klass
(** Classification of a right-oriented communication relative to a node
    covering leaves [\[lo, hi)] split at [mid] (paper Figure 4(a)).  The
    paper's five types are [Matched], sources passing up from either child,
    and destinations coming down to either child; [Internal]/[External]
    communications do not involve the node. *)
