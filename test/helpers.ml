(* Shared constructors and qcheck generators for the test suite. *)

let comm (src, dst) = Cst_comm.Comm.make ~src ~dst

let set ~n pairs = Cst_comm.Comm_set.create_exn ~n (List.map comm pairs)

let topo leaves = Cst.Topology.create ~leaves

let schedule ?leaves ~n pairs =
  Padr.schedule_exn ?leaves (set ~n pairs)

(* Every round's streamed configuration snapshot, as (index, live). *)
let snapshots sched =
  List.rev
    (Padr.Schedule.fold_configs sched ~init:[] ~f:(fun acc index live ->
         (index, live) :: acc))

let check_verified ?(msg = "schedule verifies") sched =
  let report = Padr.verify sched in
  Alcotest.(check bool)
    (msg ^ ": " ^ String.concat "; " report.issues)
    true report.ok

(* Deterministic well-nested set generator for qcheck: sizes 4..512 PEs,
   any density.  No shrinking (sets are cheap to inspect whole). *)
let gen_wn_params =
  QCheck.Gen.(
    triple (int_bound 1_000_000) (int_range 2 9) (float_bound_inclusive 1.0))

let set_of_params (seed, n_exp, density) =
  let rng = Cst_util.Prng.create seed in
  Cst_workloads.Gen_wn.uniform rng ~n:(1 lsl n_exp) ~density

let arbitrary_wn_set =
  QCheck.make
    ~print:(fun p -> Cst_comm.Comm_set.to_string (set_of_params p))
    gen_wn_params

let prop name ?(count = 100) prop_fun =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name arbitrary_wn_set prop_fun)

let case name f = Alcotest.test_case name `Quick f

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true msg b = Alcotest.(check bool) msg true b
let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")

(* Brute-force capacity-weighted width of the union of [sets] on
   [topo]: count every directed link of every member's footprint in a
   table, then take the largest count ceiled by its link's capacity.
   The independent oracle for every incremental width in the library. *)
let recount_width topo sets =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Array.iter
        (fun c ->
          List.iter
            (fun link ->
              let k = Option.value ~default:0 (Hashtbl.find_opt counts link) in
              Hashtbl.replace counts link (k + 1))
            (Cst.Compat.link_footprint topo c))
        (Cst_comm.Comm_set.comms s))
    sets;
  Hashtbl.fold
    (fun (v, _) k m ->
      let cap = Cst.Topology.uplink_cap topo v in
      max m ((k + cap - 1) / cap))
    counts 0
