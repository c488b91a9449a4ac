open Helpers

let test_accepts_well_nested () =
  check_true "nested" (Cst_comm.Well_nested.is_well_nested (set ~n:8 [ (0, 7); (1, 2); (3, 4) ]));
  check_true "empty" (Cst_comm.Well_nested.is_well_nested (set ~n:4 []));
  check_true "single" (Cst_comm.Well_nested.is_well_nested (set ~n:4 [ (1, 2) ]))

let test_rejects_crossing () =
  match Cst_comm.Well_nested.check (set ~n:8 [ (0, 2); (1, 3) ]) with
  | Error (Cst_comm.Well_nested.Crossing (a, b)) ->
      check_true "witness pair"
        (Cst_comm.Comm.crosses a b)
  | _ -> Alcotest.fail "expected a crossing violation"

let test_rejects_left_oriented () =
  match Cst_comm.Well_nested.check (set ~n:8 [ (0, 7); (5, 3) ]) with
  | Error (Cst_comm.Well_nested.Not_right_oriented c) ->
      check_int "witness src" 5 c.src
  | _ -> Alcotest.fail "expected a not-right-oriented violation"

let test_forest_structure () =
  let s = set ~n:10 [ (0, 9); (1, 4); (2, 3); (5, 8); (6, 7) ] in
  match Cst_comm.Well_nested.check s with
  | Error _ -> Alcotest.fail "should be well-nested"
  | Ok () ->
      let f = Cst_comm.Nest_forest.build s in
      (* comm indices are sorted by source: 0:(0,9) 1:(1,4) 2:(2,3)
         3:(5,8) 4:(6,7) *)
      check_true "roots" (Cst_comm.Nest_forest.roots f = [ 0 ]);
      check_true "children of 0" (Cst_comm.Nest_forest.children f 0 = [ 1; 3 ]);
      check_true "children of 1" (Cst_comm.Nest_forest.children f 1 = [ 2 ]);
      check_true "parent of 4" (Cst_comm.Nest_forest.parent f 4 = Some 3);
      check_true "parent of root" (Cst_comm.Nest_forest.parent f 0 = None);
      check_int "depth of 2" 3 (Cst_comm.Nest_forest.depth f 2);
      check_int "max depth" 3 (Cst_comm.Nest_forest.max_depth f)

let test_forest_flat () =
  let s = set ~n:8 [ (0, 1); (2, 3); (4, 5) ] in
  match Cst_comm.Well_nested.check s with
  | Error _ -> Alcotest.fail "should be well-nested"
  | Ok () ->
      let f = Cst_comm.Nest_forest.build s in
      check_true "all roots" (Cst_comm.Nest_forest.roots f = [ 0; 1; 2 ]);
      check_int "max depth" 1 (Cst_comm.Nest_forest.max_depth f)

let test_forest_dfs () =
  let s = set ~n:10 [ (0, 9); (1, 4); (2, 3); (5, 8); (6, 7) ] in
  match Cst_comm.Well_nested.check s with
  | Error _ -> Alcotest.fail "well-nested"
  | Ok () ->
      let f = Cst_comm.Nest_forest.build s in
      let order = ref [] in
      Cst_comm.Nest_forest.iter_dfs f (fun i -> order := i :: !order);
      check_true "preorder" (List.rev !order = [ 0; 1; 2; 3; 4 ])

let test_forest_empty () =
  let s = set ~n:4 [] in
  match Cst_comm.Well_nested.check s with
  | Ok () ->
      let f = Cst_comm.Nest_forest.build s in
      check_int "size" 0 (Cst_comm.Nest_forest.size f);
      check_int "depth" 0 (Cst_comm.Nest_forest.max_depth f)
  | Error _ -> Alcotest.fail "empty set is well-nested"

let test_crossing_pairs () =
  let s = set ~n:8 [ (0, 2); (1, 3); (4, 6) ] in
  let pairs = Cst_comm.Well_nested.crossing_pairs s in
  check_int "one crossing" 1 (List.length pairs)

let test_nest_forest_rejects_crossing () =
  check_raises_invalid "crossing" (fun () ->
      Cst_comm.Nest_forest.build (set ~n:8 [ (0, 2); (1, 3) ]))

let prop_generated_sets_pass =
  prop "generated sets are well-nested" (fun params ->
      Cst_comm.Well_nested.is_well_nested (set_of_params params))

let prop_depth_bounds_width =
  prop "width <= max nesting depth" (fun params ->
      let s = set_of_params params in
      match Cst_comm.Well_nested.check s with
      | Error _ -> false
      | Ok () ->
          let f = Cst_comm.Nest_forest.build s in
          Cst_comm.Width.width_auto s <= max 1 (Cst_comm.Nest_forest.max_depth f)
          || Cst_comm.Comm_set.size s = 0)

let suite =
  [
    case "accepts well-nested" test_accepts_well_nested;
    case "rejects crossing" test_rejects_crossing;
    case "rejects left-oriented" test_rejects_left_oriented;
    case "forest structure" test_forest_structure;
    case "forest flat" test_forest_flat;
    case "forest dfs" test_forest_dfs;
    case "forest empty" test_forest_empty;
    case "crossing pairs" test_crossing_pairs;
    case "nest forest rejects crossing" test_nest_forest_rejects_crossing;
    prop_generated_sets_pass;
    prop_depth_bounds_width;
  ]
