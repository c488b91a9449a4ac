(** End-to-end schedule verification.

    Checks everything the paper claims of a CSA schedule, from physical
    reproduction of the data movement up to the power bound:
    {ol
    {- {e delivery correctness} (Theorem 4): the union of per-round
       deliveries equals the set's source-to-destination matching;}
    {- {e compatibility}: no directed link carries more circuits in one
       round than its capacity (1 everywhere on the classic binary tree;
       {!Cst.Compat.is_compatible});}
    {- {e round optimality} (Theorem 5): the number of rounds equals the
       set's capacity-weighted width ({!Cst.Compat.width});}
    {- {e replay}: on a binary topology, re-installing each round's
       configuration snapshot ({!Schedule.fold_configs}, streamed from
       the schedule's log) on a fresh network reproduces that round's
       deliveries through the physical data plane, and the log holds
       exactly the schedule's rounds.  This runs for every schedule
       that retains its log — all of them, unless it was derived with
       [Schedule.of_log ~keep_configs:false];}
    {- {e power} (Theorem 8): the maximum number of connects at any single
       switch does not exceed [power_bound] (a constant independent of the
       width; default {!default_power_bound}).}} *)

type report = {
  ok : bool;
  issues : string list;  (** empty iff [ok] *)
  rounds : int;
  width : int;
  deliveries : int;
  max_connects_per_switch : int;
}

val default_power_bound : int
(** Constant bound on per-switch connects asserted for CSA schedules.
    Each of the three output ports changes driver O(1) times (Lemmas 6-7);
    empirically the maximum observed is 5 — we assert 9 to leave slack
    while still failing loudly on any width-dependent growth. *)

val schedule :
  ?power_bound:int ->
  ?check_rounds_optimal:bool ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  Schedule.t ->
  report
(** [check_rounds_optimal] defaults to true (CSA); baseline schedules set
    it to false since only the CSA guarantees exactly-width rounds. *)

val pp_report : Format.formatter -> report -> unit
