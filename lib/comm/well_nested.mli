(** Well-nestedness check with certificates.

    A right-oriented communication set is {e well-nested} when its sources
    and destinations form a balanced parenthesis expression (paper §2.1) —
    equivalently, when no two communications cross.  [check] accepts the
    set or returns a concrete violation witness usable in error messages
    and failure-injection tests.  It builds no nesting forest: callers
    that want one call {!Nest_forest.build} after it. *)

type violation =
  | Not_right_oriented of Comm.t
      (** A member has [dst < src]; mirror or decompose the set first. *)
  | Crossing of Comm.t * Comm.t
      (** Two members interleave as [s1 < s2 < d1 < d2]. *)

val check : Comm_set.t -> (unit, violation) result
(** One scan of the set's role table with a stack of open
    communications: O(n) for n PEs. *)

val is_well_nested : Comm_set.t -> bool

val crossing_pairs : Comm_set.t -> (Comm.t * Comm.t) list
(** All crossing pairs of a right-oriented set (O(M²); for diagnostics). *)

val pp_violation : Format.formatter -> violation -> unit
