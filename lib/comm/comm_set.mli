(** Sets of communications over [n] PEs.

    A valid communication set uses each PE as at most one endpoint — every PE
    is a source of at most one communication, a destination of at most one,
    and never both (paper §3, Step 1.1: a PE reports [1,0], [0,1] or
    [0,0]).  Sets are stored sorted by source for canonical comparison. *)

type t

type role = Source of int | Dest of int | Idle
(** Role of a PE; the payload is the index of its communication in
    {!comms}. *)

type error =
  | Out_of_range of Comm.t
  | Shared_endpoint of int  (** PE used by two communications *)

val create : n:int -> Comm.t list -> (t, error) result
(** Validates endpoints against [n] PEs and endpoint-disjointness. *)

val create_exn : n:int -> Comm.t list -> t
(** Like {!create} but raises [Invalid_argument] with a diagnostic. *)

val unsafe_of_sorted : n:int -> Comm.t array -> t
(** Adopts [comms] without copying, sorting or validating.  The caller
    must guarantee what {!create} checks: the array is sorted by source
    and every PE in [[0, n)] is an endpoint of at most one member.
    Intended for slicing or translating an already validated set
    (e.g. {!Decompose.blocks}), where re-validation on a hot path would
    repeat work the invariants already paid for.  O(1): the [n]-sized
    {!roles} table is built on first read, not here. *)

val empty : n:int -> t

val n : t -> int
(** Number of PEs. *)

val size : t -> int
(** Number of communications. *)

val comms : t -> Comm.t array
(** Communications sorted by source.  Do not mutate. *)

val mem : t -> Comm.t -> bool
val roles : t -> role array
(** Array of length [n]: role of each PE.  Do not mutate.  Built on
    first read for sets from {!unsafe_of_sorted}; safe to call from
    several domains at once. *)

val role_of : t -> int -> role

val is_right_oriented : t -> bool
(** Every member has [src < dst]. *)

val is_left_oriented : t -> bool

val matching : t -> (int * int) list
(** The ground-truth pairing [(src, dst)] of every communication, sorted by
    source.  Used by the schedule verifier as the expected delivery map. *)

val union : t -> t -> (t, error) result
(** Union of two sets over the same [n]; fails on endpoint clashes. *)

val filter : t -> (Comm.t -> bool) -> t
val pp : Format.formatter -> t -> unit
val pp_error : Format.formatter -> error -> unit

val to_string : t -> string
(** One ["src dst"] pair per line, preceded by a ["n <n>"] header. *)

val of_string : string -> (t, string) result
(** Parses the {!to_string} format; blank lines and [#] comments ignored. *)

val equal : t -> t -> bool
