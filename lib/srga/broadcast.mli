(** Self-configuration dissemination over one CST.

    The SRGA's defining ability is {e self}-reconfiguration: configuration
    words are distributed to the PEs over the same circuit-switched trees
    the data uses.  Because a CST switch connects inputs to outputs
    one-to-one, a broadcast is realized as [ceil(log2 n)] point-to-point
    doubling stages: after stage [k], [2^k] PEs hold the word, and each
    holder forwards it across a disjoint interval in stage [k+1].  Every
    stage is a width-1 well-nested set (possibly mixed-orientation when
    the origin is not PE 0), scheduled by the PADR scheduler. *)

type plan = Cst_comm.Comm_set.t list
(** The communication set of each stage, in order. *)

val plan : n:int -> origin:int -> plan
(** Doubling dissemination from [origin] to all [n] PEs. *)

type result = {
  stages : int;
  rounds : int;  (** total CST rounds over all stages *)
  power_units : int;
  covered : int list;  (** PEs holding the word at the end, sorted *)
}

val run : n:int -> origin:int -> result
(** Plans, schedules every stage with {!Padr.Waves.schedule} and replays
    deliveries to track coverage.  Raises on internal failure only. *)
