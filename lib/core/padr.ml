module Schedule = Schedule
module Verify = Verify
module Csa = Csa
module Engine = Engine
module Cap_engine = Cap_engine
module Par_engine = Par_engine
module Phase1 = Phase1
module Round = Round
module Downmsg = Downmsg
module Csa_state = Csa_state
module Waves = Waves
module Plan = Plan
module Invariants = Invariants

type error = Csa.error

let pp_error = Csa.pp_error

let topology_for set =
  Cst.Topology.create
    ~leaves:(Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n set)))

let topo_of ?shape ?leaves set =
  match (shape, leaves) with
  | Some _, Some _ -> invalid_arg "Padr: ?shape and ?leaves are exclusive"
  | Some shape, None -> Cst.Topology.of_shape shape
  | None, Some leaves -> Cst.Topology.create ~leaves
  | None, None -> topology_for set

let schedule ?shape ?leaves ?log set =
  Csa.run ?log (topo_of ?shape ?leaves set) set

let schedule_exn ?shape ?leaves ?log set =
  Csa.run_exn ?log (topo_of ?shape ?leaves set) set

let verify (sched : Schedule.t) =
  Verify.schedule (Cst.Topology.create ~leaves:sched.leaves) sched.set sched

type mixed = {
  right : Schedule.t option;
  left : Schedule.t option;
  rounds : int;
  power_units : int;
}

let schedule_mixed ?leaves set =
  let right_part, left_part = Cst_comm.Decompose.split set in
  let run part =
    if Cst_comm.Comm_set.size part = 0 then Ok None
    else Result.map Option.some (schedule ?leaves part)
  in
  match run right_part with
  | Error e -> Error e
  | Ok right -> (
      match run (Cst_comm.Mirror.set left_part) with
      | Error e -> Error e
      | Ok left ->
          let rounds_of = function
            | None -> 0
            | Some s -> Schedule.num_rounds s
          in
          let power_of = function
            | None -> 0
            | Some (s : Schedule.t) -> s.power.total_connects
          in
          Ok
            {
              right;
              left;
              rounds = rounds_of right + rounds_of left;
              power_units = power_of right + power_of left;
            })

let mixed_deliveries m =
  let right =
    match m.right with None -> [] | Some s -> Schedule.all_deliveries s
  in
  let left =
    match m.left with
    | None -> []
    | Some s ->
        (* Undo the reflection with the same n used to mirror the part. *)
        let n = Cst_comm.Comm_set.n s.set in
        List.map
          (fun (src, dst) ->
            (Cst_comm.Mirror.pe ~n src, Cst_comm.Mirror.pe ~n dst))
          (Schedule.all_deliveries s)
  in
  List.sort compare (right @ left)
