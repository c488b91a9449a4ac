(** Executing a traffic trace and accounting energy/latency over time.

    The PADR runner keeps one pair of live networks for the whole trace
    (right-oriented and mirrored-left) and runs every phase on them with
    {!Padr.Waves.run}, so switch configurations persist across phases
    exactly as the technique intends; arbitrary phases are covered by
    well-nested waves.  Baseline runners execute each phase
    with a registry scheduler on a cold network (per-round ID scheduling
    has no carry-over to exploit anyway). *)

type phase_result = {
  label : string;
  comms : int;
  width : int;
  waves : int;
  rounds : int;
  cycles : int;
  connects : int;  (** physical transitions in this phase *)
  writes : int;  (** register installations in this phase *)
}

type result = {
  scheduler : string;
  phases : phase_result list;
  rounds : int;
  cycles : int;
  power : Padr.Schedule.power;  (** whole-trace combined ledger *)
}

val run_padr : Traffic.t -> result
(** The CSA with cross-phase carry-over; accepts any valid phases and
    raises [Invalid_argument] naming the phase if the scheduler rejects
    one.  Runs in-process: the live carried-over networks make phases
    inherently sequential, so there is nothing for a domain pool to
    shard. *)

val run_baseline :
  ?domains:int -> Cst_baselines.Registry.algo -> Traffic.t -> result
(** Cold per-phase execution as a {!Cst_service.Service} batch — one job
    per phase, sharded over [domains] workers (service default when
    omitted).  Phases the algorithm cannot handle (see the registry
    capability record) raise [Invalid_argument] with the service's typed
    error rendered. *)

val compare_all :
  ?domains:int ->
  ?algos:Cst_baselines.Registry.algo list ->
  Traffic.t ->
  (string * result) list
(** [run_padr] plus each baseline, in registry order.  The default
    baseline list excludes the CSA entry (it duplicates [run_padr] minus
    carry-over across phases). *)

val energy_ratio : result -> result -> float
(** [energy_ratio a b]: total writes of [a] over total writes of [b]. *)
