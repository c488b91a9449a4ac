(** Physical data movement through a configured CST.

    The data plane follows the switch connections exactly as hardware
    would: a source PE drives the input port of its parent switch; each
    switch forwards its inputs to whatever outputs they are connected to;
    a value reaching a leaf link is latched by that PE.  Because an input
    can never reach an output of its own side, every signal first travels
    upward, turns downward at most once, and terminates within
    [2*levels - 1] switches — there are no cycles by construction. *)

type hop = { node : int; input : Side.t; output : Side.t }

val trace_from : Net.t -> src:int -> hop list * int option
(** [trace_from net ~src] follows the signal injected by PE [src] and
    returns the switch hops traversed plus the PE reached, or [None] if
    the signal dead-ends at an unconnected input or leaves toward an
    idle... leaf-less port (the root's parent side). *)

val route : Net.t -> src:int -> int option
(** Destination PE reached by [src]'s signal, if any: [trace_from]
    without the hops.  Raises [Invalid_argument] on a net whose topology
    is not binary, as does {!transfer}. *)

val transfer : Net.t -> sources:int list -> (int * int) list
(** One data cycle: every source PE writes its output register; the list
    of [(src, dst)] deliveries is returned and destination input registers
    are latched.  Raises [Invalid_argument], before latching anything, if
    two sources collide on a destination.  Every output has exactly one
    driver, so the path into any port is unique: whatever the
    configuration, only a source listed twice can collide. *)
