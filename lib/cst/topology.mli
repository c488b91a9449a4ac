(** Tree topology of the CST, driven by a {!Shape} level table.

    Nodes are numbered breadth-first: the root is node 1, each depth
    occupies a contiguous id range, and children appear in order under
    their parent.  On the default binary shape this is exactly the
    classic heap numbering — node [v] has children [2v] (left) and
    [2v+1] (right), leaf [p] (PE number [p], [0 <= p < leaves]) is node
    [leaves + p] — so binary topologies are bit-for-bit identical to
    the historical hard-wired implementation.  Internal nodes are
    [1 .. first_leaf - 1]; they carry the switches.  Every non-root
    node has one link to its parent whose capacity the shape fixes. *)

type t

val create : leaves:int -> t
(** Complete binary tree; [leaves] must be a power of two, at least 2. *)

val of_shape : Shape.t -> t
(** Topology over an arbitrary validated level table. *)

val shape : t -> Shape.t

val is_binary : t -> bool
(** True iff the shape is the unit-capacity complete binary tree — the
    guard for every [_u] fast path and the binary engines. *)

val leaves : t -> int

val levels : t -> int
(** Number of switch levels; a leaf-to-leaf path traverses at most
    [2*levels - 1] switches. *)

val num_nodes : t -> int
(** Nodes are numbered [1 .. num_nodes]; [2*leaves - 1] on binary. *)

val root : int
(** Node 1. *)

(** {2 Closed-form hardware cost}

    The synchronous cost models of Theorem 5, shared by every producer
    that reports cycles or control messages without simulating them. *)

val spec_cycles : t -> rounds:int -> int
(** Cycles of a functional scheduler's [rounds]-round schedule: [levels]
    for Phase 1 plus [levels + 1] per round. *)

val engine_cost : t -> rounds:int -> int * int
(** [(cycles, control_messages)] of the message-passing engine that runs
    on this shape for [rounds] rounds.  Cycles are
    [1 + levels + rounds * (levels + 2)]: a leading demand sweep, then
    per round a configuration sweep down the levels, a grant sweep back
    and one data cycle.  Messages are counted per link and sweep over
    [rounds + 1] sweeps: [2 * (leaves - 1)] per sweep on the binary shape
    (the binary engine), [2 * (num_nodes - 1)] elsewhere (the capacity
    engine's demand and grant words). *)

val first_leaf : t -> int
(** Id of leaf 0 ([= leaves t] on binary). *)

val is_leaf : t -> int -> bool
val is_internal : t -> int -> bool
val node_of_pe : t -> int -> int
val pe_of_node : t -> int -> int

val parent : t -> int -> int
(** Requires a non-root node. *)

val fanout_of : t -> int -> int
(** Children of an internal node (0 for a leaf). *)

val child : t -> int -> int -> int
(** [child t v j] is the [j]-th child of internal node [v],
    [0 <= j < fanout_of t v]. *)

val left : t -> int -> int
(** [child t v 0]; requires an internal node. *)

val right : t -> int -> int
(** [child t v 1]; requires an internal node (every shape has fanout
    [>= 2]). *)

val child_index : t -> int -> int
(** Position of a non-root node among its parent's children. *)

val child_side : t -> int -> Side.t
(** Which child of its parent a non-root node is ([L] or [R]).  Only
    meaningful when the parent's fanout is 2; raises otherwise. *)

val level : t -> int -> int
(** Leaves are level 0; the root is level [levels]. *)

val uplink_cap : t -> int -> int
(** Capacity of the link from a non-root node to its parent (1
    everywhere on binary). *)

(** {2 Hot-path accessors}

    The [_u] accessors skip node validation (and, for
    [level_u]/[depth_u], read a precomputed depth table).  They are
    meant for the engines' inner loops; callers must guarantee
    [1 <= v <= num_nodes t] (and internality where children are taken).
    [left_u]/[right_u]/[parent_u] additionally assume a {e binary}
    topology — they are plain heap arithmetic and are wrong on any
    other shape; guard call sites with {!is_binary}. *)

val left_u : int -> int
(** [2*v], unchecked, binary only. *)

val right_u : int -> int
(** [2*v + 1], unchecked, binary only. *)

val parent_u : int -> int
(** [v/2], unchecked, binary only. *)

val depth_u : t -> int -> int
(** Depth of node [v] (table lookup): root 0, leaves [levels]. *)

val level_u : t -> int -> int
(** [levels t - depth_u t v], unchecked table lookup. *)

val lca : t -> int -> int -> int

val interval : t -> int -> int * int
(** Leaf interval [\[lo, hi)] covered by a node; a leaf covers
    [\[p, p+1)]. *)

val mid : t -> int -> int
(** First leaf past an internal node's first child's subtree: the
    left/right split point on fanout 2. *)

val mirror_node : t -> int -> int
(** The node covering the left-right reflected interval: if [v] covers
    [\[lo, hi)], [mirror_node t v] covers [\[leaves-hi, leaves-lo)].  An
    involution fixing the root; maps first children to last children.
    Used to report per-switch power of a mirrored (left-oriented) schedule
    in original coordinates. *)

val parent_table : t -> int array
(** Fresh array [pt] with [pt.(v) = parent t v] for every non-root node
    ([pt.(0)], [pt.(1)] are 0), for inner loops that walk the tree many
    times (the placement optimizer, the capacity engine). *)

val cap_table : t -> int array
(** Fresh array [ct] with [ct.(v) = uplink_cap t v] for every non-root
    node ([ct.(0)], [ct.(1)] are 0). *)

val path_to_root : t -> int -> int list
(** Node followed by its ancestors up to the root. *)

val internal_nodes : t -> int Seq.t
(** All internal nodes, in increasing (breadth-first) order. *)

val pp : Format.formatter -> t -> unit
