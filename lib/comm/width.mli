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
    two at least [Comm_set.n set].  Widths on k-ary and
    capacity-weighted trees are [Cst.Compat.width]'s. *)

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
