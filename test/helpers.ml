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

(* The unpruned CSA, the reference for the pruned [Padr.Round.sweep]
   and for [Padr.Csa.run] built on it: every round sweeps every switch,
   on fresh Phase-1 registers ([Padr.Phase1.run]), and reconfigures
   every switch in ascending node order. *)
module Reference = struct
  type outcome = {
    wants : Cst.Switch_config.t array;  (* per internal node *)
    sources : int list;  (* ascending *)
    dests : int list;  (* ascending *)
    matched_count : int;
  }

  let sweep topo (states : Padr.Csa_state.t array) =
    let leaves = Cst.Topology.leaves topo in
    let wants = Array.make leaves Cst.Switch_config.empty in
    let sources = ref [] and dests = ref [] in
    let matched = ref 0 in
    let rec go node (msg : Padr.Downmsg.t) =
      if Cst.Topology.is_leaf topo node then begin
        let pe = Cst.Topology.pe_of_node topo node in
        (match msg.sreq with
        | Some 0 -> sources := pe :: !sources
        | None -> ()
        | Some _ -> assert false);
        (match msg.dreq with
        | Some 0 -> dests := pe :: !dests
        | None -> ()
        | Some _ -> assert false);
        assert (not (msg.sreq <> None && msg.dreq <> None))
      end
      else begin
        let d = Padr.Round.configure states.(node) msg in
        wants.(node) <- d.config;
        if d.scheduled_matched then incr matched;
        go (Cst.Topology.left topo node) d.to_left;
        go (Cst.Topology.right topo node) d.to_right
      end
    in
    go Cst.Topology.root Padr.Downmsg.null;
    {
      wants;
      sources = List.rev !sources;
      dests = List.rev !dests;
      matched_count = !matched;
    }

  (* [Padr.Csa.run]'s binary path on [net]: appends the run to the net's
     log and returns its round count.  [set] must be right-oriented and
     well-nested. *)
  let run ?(eager_clear = false) net set =
    let topo = Cst.Net.topology net in
    let leaves = Cst.Topology.leaves topo in
    let phase1 = Padr.Phase1.run topo set in
    let log = Cst.Net.log net in
    Cst.Exec_log.phase_done log ~levels:(Cst.Topology.levels topo);
    let remaining = ref (Padr.Phase1.total_matched phase1) in
    let index = ref 0 in
    while !remaining > 0 do
      incr index;
      Cst.Exec_log.round_begin log ~index:!index;
      let out = sweep topo phase1.states in
      if out.matched_count = 0 then failwith "Reference.run: stalled";
      for node = 1 to leaves - 1 do
        if eager_clear then Cst.Net.reconfigure net ~node out.wants.(node)
        else Cst.Net.reconfigure_lazy net ~node ~want:out.wants.(node)
      done;
      List.iter (fun pe -> Cst.Net.pe_write net ~pe pe) out.sources;
      List.iter
        (fun (src, dst) -> Cst.Exec_log.deliver log ~src ~dst)
        (Cst.Data_plane.transfer net ~sources:out.sources);
      remaining := !remaining - out.matched_count
    done;
    Cst.Exec_log.run_end log ~rounds:!index;
    !index
end

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
