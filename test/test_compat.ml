open Helpers

let t8 = topo 8

let test_footprint () =
  let fp = Cst.Compat.link_footprint t8 (comm (0, 7)) in
  check_int "six links" 6 (List.length fp);
  check_true "uses leaf up" (List.mem (8, Cst.Compat.Up) fp);
  check_true "uses spine up" (List.mem (2, Cst.Compat.Up) fp);
  check_true "uses down to 3" (List.mem (3, Cst.Compat.Down) fp);
  check_true "uses leaf down" (List.mem (15, Cst.Compat.Down) fp)

let test_footprint_neighbors () =
  let fp = Cst.Compat.link_footprint t8 (comm (0, 1)) in
  check_true "two links" (List.length fp = 2);
  check_true "up then down"
    (List.mem (8, Cst.Compat.Up) fp && List.mem (9, Cst.Compat.Down) fp)

let test_footprint_left_oriented () =
  let fp = Cst.Compat.link_footprint t8 (comm (1, 0)) in
  check_true "reverse direction"
    (List.mem (9, Cst.Compat.Up) fp && List.mem (8, Cst.Compat.Down) fp)

let test_conflict_nested_at_root () =
  (* (0,3) and (1,2) on 4 leaves share the up link into the root. *)
  let t4 = topo 4 in
  check_true "conflict" (Cst.Compat.conflict t4 (comm (0, 3)) (comm (1, 2)))

let test_no_conflict_disjoint () =
  check_true "disjoint compatible"
    (not (Cst.Compat.conflict t8 (comm (0, 1)) (comm (2, 3))))

let test_no_conflict_nested_but_separate () =
  (* (0,7) and (2,3): nested intervals, disjoint link sets. *)
  check_true "no shared link"
    (not (Cst.Compat.conflict t8 (comm (0, 7)) (comm (2, 3))))

let test_opposite_directions_ok () =
  (* (0,3) right and (2,1)? both right-oriented variants that share an
     edge in opposite directions: (0,2) uses down into [2,3]; (3,5)? keep
     simple: a right and a left communication over the same span. *)
  check_true "opposite directions compatible"
    (not (Cst.Compat.conflict t8 (comm (0, 2)) (comm (3, 1))))

let test_is_compatible () =
  check_true "round is compatible"
    (Cst.Compat.is_compatible t8 [ comm (0, 7); comm (2, 3) ]);
  check_true "conflicting round"
    (not (Cst.Compat.is_compatible t8 [ comm (0, 7); comm (1, 6) ]))

let test_max_congestion () =
  check_int "onion congestion" 4
    (Cst.Compat.max_congestion t8
       [ comm (0, 7); comm (1, 6); comm (2, 5); comm (3, 4) ]);
  check_int "empty" 0 (Cst.Compat.max_congestion t8 [])

let prop_congestion_matches_width =
  prop "max_congestion agrees with Width" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      Cst.Compat.max_congestion t (Array.to_list (Cst_comm.Comm_set.comms s))
      = Cst_comm.Width.width ~leaves s)

let prop_footprint_alternation =
  prop "footprints climb then descend" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      Array.for_all
        (fun c ->
          let fp = Cst.Compat.link_footprint t c in
          (* length = hops from both leaves to the LCA *)
          List.length fp >= 2
          && List.exists (fun (_, d) -> d = Cst.Compat.Up) fp
          && List.exists (fun (_, d) -> d = Cst.Compat.Down) fp)
        (Cst_comm.Comm_set.comms s)
      || Cst_comm.Comm_set.size s = 0)

(* The oracle for widths on every shape: a random set (well-nested, or
   arbitrary pairs in both orientations) on a random binary, k-ary or
   fat tree.  [width] agrees with the brute-force footprint recount, and
   so does a load that is charged, cleared and charged again. *)
let prop_width_matches_recount =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"width = footprint recount on every shape"
       QCheck.(pair Test_shape.arbitrary_shape (int_bound 1_000_000))
       (fun (shape, seed) ->
         let rng = Cst_util.Prng.create seed in
         let topo = Cst.Topology.of_shape shape in
         let n = Cst.Shape.leaves shape in
         let random_set () =
           if Cst_util.Prng.int rng 2 = 0 then
             Cst_workloads.Gen_wn.uniform rng ~n
               ~density:(Cst_util.Prng.float rng 1.0)
           else
             Cst_workloads.Gen_arbitrary.random_pairs rng ~n
               ~pairs:(1 + Cst_util.Prng.int rng (n / 2))
         in
         let a = random_set () and b = random_set () in
         let load = Cst.Compat.Load.create topo in
         Cst.Compat.Load.charge load a;
         Cst.Compat.Load.charge load b;
         let merged = Cst.Compat.Load.width load in
         Cst.Compat.Load.clear load;
         Cst.Compat.Load.charge load b;
         Cst.Compat.width topo a = recount_width topo [ a ]
         && merged = recount_width topo [ a; b ]
         && Cst.Compat.Load.width load = recount_width topo [ b ]))

let suite =
  [
    case "footprint of a long path" test_footprint;
    case "footprint of neighbors" test_footprint_neighbors;
    case "footprint left-oriented" test_footprint_left_oriented;
    case "conflict: nested at root" test_conflict_nested_at_root;
    case "no conflict: disjoint" test_no_conflict_disjoint;
    case "no conflict: nested but separate" test_no_conflict_nested_but_separate;
    case "opposite directions ok" test_opposite_directions_ok;
    case "is_compatible" test_is_compatible;
    case "max congestion" test_max_congestion;
    prop_congestion_matches_width;
    prop_footprint_alternation;
    prop_width_matches_recount;
  ]
