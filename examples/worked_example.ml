(* The paper's Figure 3(b) and Definitions 1-2, worked in code.

   A subtree T(u) holds sources s7 < s6 < s4 < s3 and destinations
   d4 < d3; communications c3 and c4 are matched at u while the outer two
   leave the subtree.  The example prints the Phase 1 registers at u,
   identifies the outermost matched communication O_c(u) and its
   Definition 2 indices, then runs the schedule and shows that u's switch
   serves its traffic with O(1) configuration changes.

   Run with:  dune exec examples/worked_example.exe *)

let () =
  let set = Cst_workloads.Patterns.fig3b () in
  Format.printf "set: %a@." Cst_comm.Comm_set.pp set;
  Format.printf "     %s@.@." (Cst_comm.Paren.to_string set);

  let topo = Cst.Topology.create ~leaves:16 in
  let u = 2 in
  (* node covering PEs 0..7, the paper's switch u *)
  let lo, hi = Cst.Topology.interval topo u in
  Format.printf "switch u = node %d covering PEs [%d..%d)@." u lo hi;

  (* Phase 1: the registers the paper's Step 1.3 stores at u. *)
  let p1 = Padr.Phase1.run topo set in
  let st = Padr.Phase1.state p1 u in
  Format.printf "C_S(u) after Phase 1: %a@." Padr.Csa_state.pp st;
  Format.printf
    "  %d matched pairs; %d sources pass above u; %d destinations come down@.@."
    st.m (st.sl + st.sr) (st.dl + st.dr);

  (* Definition 1/2: the outermost matched communication at u is the
     matched source with all pass-up sources to its left. *)
  Format.printf
    "O_c(u) is the matched pair whose source is S_u(%d) (x_s = sl = %d)@."
    st.sl st.sl;
  Format.printf
    "and whose destination is D_u(%d) (x_d = dr = %d) - Definition 2.@.@."
    st.dr st.dr;

  (* Run the schedule and watch switch u's configuration per round. *)
  let sched = Padr.schedule_exn set in
  Format.printf "schedule (width %d):@." sched.width;
  Padr.Schedule.fold_configs sched ~init:() ~f:(fun () index live ->
      let r = sched.rounds.(index - 1) in
      Format.printf "  round %d: u=%s |" r.index
        (match List.assoc_opt u live with
        | Some c -> Format.asprintf "%a" Cst.Switch_config.pp c
        | None -> "{}");
      List.iter (fun (s, d) -> Format.printf " %d->%d" s d) r.deliveries;
      Format.printf "@.");

  Format.printf "@.switch u made %d configuration change(s) in %d rounds@."
    (Cst.Power_meter.connects sched.power.ledger ~node:u)
    (Padr.Schedule.num_rounds sched);
  let report = Padr.verify sched in
  Format.printf "verification: %a@." Padr.Verify.pp_report report
