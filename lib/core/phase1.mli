(** Phase 1 of the CSA: distributing control information (paper §3).

    Each PE reports whether it is a source ([1,0]), a destination ([0,1])
    or idle ([0,0]); each switch combines the [C_U = [S, D]] words of its
    children, matches [min(S_L, D_R)] source-destination pairs locally
    (correct by the paper's Lemma 1 for well-nested right-oriented sets)
    and forwards the residue.  The pass is purely local: a switch sees only
    the two 2-word messages from its children.

    {!fill} is the one implementation: {!Round.prepare} runs it on the
    per-domain workspace of the spec and the message-passing engine,
    and {!run} on fresh registers, for {!Invariants}' oracle and the
    tests.  A switch's upward word is read back from its own registers
    ([sl + sr], [dl + dr]), so the pass keeps no mailboxes. *)

type t = {
  states : Csa_state.t array;
      (** indexed by internal node id; slot 0 is unused *)
}

val fill : Cst.Topology.t -> Cst_comm.Comm_set.t -> Csa_state.t array -> unit
(** [fill topo set states] overwrites the registers [states.(1)] ..
    [states.(leaves - 1)] of every switch, whatever they held before.
    Requires what {!run} checks: a binary topology and a right-oriented
    set fitting it; for well-nested input the root's residue is zero
    (asserted).  [states] must have at least [leaves] slots. *)

val run : Cst.Topology.t -> Cst_comm.Comm_set.t -> t
(** {!fill} into fresh registers.  Raises [Invalid_argument] on a
    non-binary topology, a set with more PEs than leaves or a set that
    is not right-oriented; callers validate well-nestedness beforehand
    ({!Csa.run} does). *)

val state : t -> int -> Csa_state.t
(** Registers of the switch at an internal node. *)

val total_matched : t -> int
(** Sum of [m] over all switches; equals the set size for well-nested
    input (every communication is matched exactly at its LCA). *)

val up_words_per_message : int
(** Size of the upward control message [C_U] — the constant 2
    (Theorem 5). *)
