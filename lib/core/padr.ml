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
