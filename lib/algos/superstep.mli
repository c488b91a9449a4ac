(** Bulk-synchronous computation over the CST under PADR.

    The paper's conclusion proposes "using the PADR technique to develop
    computational algorithms for reconfigurable models".  This module is
    that harness: a program is a sequence of {e supersteps}, each deriving
    a communication pattern from the current PE states and absorbing the
    realized deliveries into new states.  Every pattern is scheduled by
    {!Padr.Waves.run} on the same two {e persistent} networks (one per
    orientation), so the PADR carry-over saves configuration writes
    across supersteps as well as across rounds.

    Patterns are arbitrary: crossing sets simply cost several waves. *)

type 'a step = {
  label : string;
  pattern : 'a array -> Cst_comm.Comm_set.t;
      (** communications of this superstep, from the current states; the
          set's [n] must equal the program's PE count *)
  absorb : 'a array -> (int * int) list -> 'a array;
      (** new states from the old states and the realized (src, dst)
          deliveries; by convention reads only sources' states *)
}

type 'a program = { name : string; steps : 'a step list }

type stats = {
  supersteps : int;
  waves : int;  (** CSA waves over all supersteps *)
  rounds : int;  (** data-transfer rounds over all supersteps *)
  cycles : int;
  power : Padr.Schedule.power;  (** combined over both persistent networks *)
}

val run : ?leaves:int -> 'a program -> init:'a array -> 'a array * stats
(** Executes the program on [Array.length init] PEs.  Raises
    [Invalid_argument] naming the step if a pattern is mis-sized or the
    scheduler rejects it.  Each superstep's deliveries are checked
    against the pattern's matching before being absorbed. *)
