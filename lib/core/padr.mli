(** High-level facade over the PADR scheduler.

    Most users need only this module:

    {[
      let set = Cst_comm.Comm_set.create_exn ~n:8
          [ Cst_comm.Comm.make ~src:0 ~dst:7; Cst_comm.Comm.make ~src:2 ~dst:3 ]
      in
      match Padr.schedule set with
      | Ok sched -> Format.printf "%a" Padr.Schedule.pp sched
      | Error e -> Format.eprintf "%a" Padr.pp_error e
    ]}

    Right-oriented well-nested sets are scheduled directly.  Left-oriented
    and mixed sets go through {!Waves}, which schedules them by
    reflection, as the paper's §2.1 suggests: it splits a set into its
    right-oriented part and its (mirrored) left-oriented part, runs the
    CSA on each and maps the mirrored part back.  Crossing parts cost
    more waves. *)

module Schedule = Schedule
module Verify = Verify

module Csa : module type of Csa
(** The scheduler itself, for callers needing an explicit topology or the
    eager-clearing ablation mode. *)

module Engine : module type of Engine
(** Message-passing execution with cycle and message statistics. *)

module Cap_engine : module type of Cap_engine
(** Capacity-aware greedy circuit allocator — the scheduler behind every
    non-binary ({!Cst.Shape}) topology. *)

module Par_engine : module type of Par_engine
(** Segment-parallel engine: independent top-level blocks scheduled
    concurrently, logs rebased and merged — byte-identical to
    {!Engine.run}. *)

module Phase1 : module type of Phase1
module Round : module type of Round
module Downmsg : module type of Downmsg
module Csa_state : module type of Csa_state

module Waves : module type of Waves
(** Arbitrary (crossing, mixed-orientation) sets as sequences of CSA
    waves — the extension the paper's conclusion proposes. *)

module Plan : module type of Plan
(** Compile-once / replay-many routing plans: a frozen execution log
    keyed by the set's structural signature ({!Cst.Canon}), replayable
    onto any congruent placement without re-scheduling. *)

module Invariants : module type of Invariants
(** White-box auditing: the mutated registers always equal a from-scratch
    Phase 1 on the pending remainder. *)

type error = Csa.error

val pp_error : Format.formatter -> error -> unit

val topology_for : Cst_comm.Comm_set.t -> Cst.Topology.t
(** Smallest power-of-two CST accommodating the set. *)

val schedule :
  ?shape:Cst.Shape.t ->
  ?leaves:int ->
  ?log:Cst.Exec_log.t ->
  Cst_comm.Comm_set.t ->
  (Schedule.t, error) result
(** Schedules a right-oriented well-nested set on a CST with [leaves]
    leaves (default: smallest adequate), or on an arbitrary [?shape]
    (exclusive with [?leaves]; non-binary shapes run on the capacity
    engine).  The run is appended to [?log] (or a private log); derive a
    narration with [Cst.Trace.of_log]. *)

val schedule_exn :
  ?shape:Cst.Shape.t ->
  ?leaves:int ->
  ?log:Cst.Exec_log.t ->
  Cst_comm.Comm_set.t ->
  Schedule.t

val verify : Schedule.t -> Verify.report
(** Full verification of a schedule produced by {!schedule}. *)
