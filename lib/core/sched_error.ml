(* Scheduling error, shared by every engine.  A leaf module so that both
   [Csa] (the spec scheduler) and [Cap_engine] (the generalized-topology
   scheduler) can name the same type without depending on each other;
   [Csa.error] re-exports the constructors, so callers keep writing
   [Csa.Too_large]. *)

type t =
  | Too_large of { n : int; leaves : int }
  | Not_well_nested of Cst_comm.Well_nested.violation
  | Stalled of { round : int; remaining : int }

(* The input contract of every producer ([Csa.run], [Engine], [Cap_engine],
   [Par_engine.decompose]), checked in this order: the set fits the tree,
   then it is right-oriented and well-nested. *)
let check topo set =
  let n = Cst_comm.Comm_set.n set and leaves = Cst.Topology.leaves topo in
  if n > leaves then Error (Too_large { n; leaves })
  else
    match Cst_comm.Well_nested.check set with
    | Error v -> Error (Not_well_nested v)
    | Ok () -> Ok ()

let pp fmt = function
  | Too_large { n; leaves } ->
      Format.fprintf fmt "set over %d PEs does not fit a %d-leaf CST" n leaves
  | Not_well_nested v ->
      Format.fprintf fmt "set is not schedulable by the CSA: %a"
        Cst_comm.Well_nested.pp_violation v
  | Stalled { round; remaining } ->
      Format.fprintf fmt
        "scheduler stalled in round %d with %d communications pending \
         (internal invariant broken)"
        round remaining
