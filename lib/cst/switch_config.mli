(** Configuration of one 3-sided switch.

    A configuration assigns to each data output at most one driving data
    input, subject to the switch's structural constraints:
    {ul
    {- an input never drives the output of its own side (no U-turns — this
       is what bounds path length by [O(log N)], paper §2);}
    {- connections are one-to-one: an input drives at most one output.}}

    Values are immutable; the live network ({!Net}) swaps whole
    configurations and charges power for the difference ({!diff}).

    {2 Representation}

    A configuration is its 6-bit driver code, an immediate [int]: bits
    [2o] and [2o + 1] hold [0] when the output of side index [o]
    ({!Side.index}) is undriven, else [1 + Side.index driver].  The code
    is canonical, so {!equal} is integer equality, and no operation
    below allocates: {!merge_lazy} is a lookup in a 64 x 64 table built
    once from its definition, {!diff} returns one of 16 shared records,
    and {!driver} and {!output_of} return preallocated options.  {!Exec_log}'s replay
    keeps exactly this code per switch. *)

type t = private int

val of_code : int -> t
(** The configuration whose driver code is the argument, unchecked
    like {!with_driver} (a code may drive one input into two outputs).
    Raises [Invalid_argument] outside [0 .. 63]. *)

val empty : t
(** No connections. *)

val set : t -> output:Side.t -> input:Side.t -> t
(** Adds a connection.  Raises [Invalid_argument] on a same-side
    connection, if [output] is already driven, or if [input] already
    drives another output. *)

val driver : t -> Side.t -> Side.t option
(** [driver t output] is the input connected to [output], if any. *)

val with_driver : t -> output:Side.t -> input:Side.t option -> t
(** Unchecked driver update, for replaying logged transitions
    ({!Exec_log}): overwrites [output]'s driver (or clears it on
    [None]) without the structural checks of {!set} — the log records
    transitions that a checked configuration already performed. *)

val output_of : t -> Side.t -> Side.t option
(** [output_of t input] is the output driven by [input], if any. *)

val connections : t -> (Side.t * Side.t) list
(** [(output, input)] pairs, in side order. *)

val connection_count : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool

val merge_lazy : prev:t -> want:t -> t
(** Power-aware carry-over (the PADR discipline): start from [want] and
    re-add every [prev] connection that neither conflicts with a wanted
    output nor steals an input used by [want].  A switch therefore only
    touches the connections the current round actually requires.  The
    re-adds go through {!set}'s checks, so an illegal [prev] (one only
    {!with_driver} or {!of_code} can build) raises [Invalid_argument]. *)

type delta = { connects : int; disconnects : int }

val diff : old_config:t -> new_config:t -> delta
(** Per-output transition counts between two configurations.  An output
    whose driver changes from one input to another counts as one connect
    (the paper charges one power unit per connection set) and no
    disconnect; input-to-none is a disconnect; none-to-input a connect. *)

val pp : Format.formatter -> t -> unit
(** E.g. ["{L->P, P->R}"] meaning input L drives output P, etc.;
    ["{}"] when empty. *)
