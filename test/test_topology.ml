open Helpers

let t8 = topo 8

let test_create_invalid () =
  check_raises_invalid "not power of two" (fun () -> Cst.Topology.create ~leaves:6);
  check_raises_invalid "too small" (fun () -> Cst.Topology.create ~leaves:1);
  check_raises_invalid "negative" (fun () -> Cst.Topology.create ~leaves:(-4))

let test_counts () =
  check_int "leaves" 8 (Cst.Topology.leaves t8);
  check_int "levels" 3 (Cst.Topology.levels t8);
  check_int "nodes" 15 (Cst.Topology.num_nodes t8)

let test_leaf_mapping () =
  for pe = 0 to 7 do
    let node = Cst.Topology.node_of_pe t8 pe in
    check_true "is leaf" (Cst.Topology.is_leaf t8 node);
    check_int "round trip" pe (Cst.Topology.pe_of_node t8 node)
  done;
  check_raises_invalid "bad pe" (fun () -> Cst.Topology.node_of_pe t8 8);
  check_raises_invalid "internal not pe" (fun () -> Cst.Topology.pe_of_node t8 3)

let test_parent_children () =
  check_int "left of root" 2 (Cst.Topology.left t8 1);
  check_int "right of root" 3 (Cst.Topology.right t8 1);
  check_int "parent" 1 (Cst.Topology.parent t8 2);
  check_int "parent of leaf" 4 (Cst.Topology.parent t8 8);
  check_raises_invalid "parent of root" (fun () -> Cst.Topology.parent t8 1);
  check_raises_invalid "children of leaf" (fun () -> Cst.Topology.left t8 9)

let test_child_side () =
  check_true "even is left" (Cst.Topology.child_side t8 2 = Cst.Side.L);
  check_true "odd is right" (Cst.Topology.child_side t8 3 = Cst.Side.R);
  check_true "leaf side" (Cst.Topology.child_side t8 9 = Cst.Side.R);
  check_raises_invalid "root has no side" (fun () -> Cst.Topology.child_side t8 1)

let test_levels () =
  check_int "root level" 3 (Cst.Topology.level t8 1);
  check_int "leaf level" 0 (Cst.Topology.level t8 8);
  check_int "mid level" 1 (Cst.Topology.level t8 7)

let test_lca () =
  check_int "siblings" 4 (Cst.Topology.lca t8 8 9);
  check_int "across root" 1 (Cst.Topology.lca t8 8 15);
  check_int "self" 10 (Cst.Topology.lca t8 10 10);
  check_int "ancestor" 2 (Cst.Topology.lca t8 2 11)

let test_interval () =
  check_true "root" (Cst.Topology.interval t8 1 = (0, 8));
  check_true "node 5" (Cst.Topology.interval t8 5 = (2, 4));
  check_true "leaf 13" (Cst.Topology.interval t8 13 = (5, 6))

let test_mid () =
  check_int "root mid" 4 (Cst.Topology.mid t8 1);
  check_int "node 5 mid" 3 (Cst.Topology.mid t8 5);
  check_raises_invalid "leaf mid" (fun () -> Cst.Topology.mid t8 8)

let test_path_to_root () =
  check_true "from leaf" (Cst.Topology.path_to_root t8 11 = [ 11; 5; 2; 1 ]);
  check_true "from root" (Cst.Topology.path_to_root t8 1 = [ 1 ])

let test_internal_iteration () =
  let seq = List.of_seq (Cst.Topology.internal_nodes t8) in
  check_true "breadth-first ids" (seq = [ 1; 2; 3; 4; 5; 6; 7 ])

let test_mirror_node () =
  check_int "root fixed" 1 (Cst.Topology.mirror_node t8 1);
  check_int "left child to right" 3 (Cst.Topology.mirror_node t8 2);
  check_int "right child to left" 2 (Cst.Topology.mirror_node t8 3);
  check_int "leaf 0 to leaf 7" 15 (Cst.Topology.mirror_node t8 8);
  (* involution over all nodes *)
  for v = 1 to 15 do
    check_int "involution" v
      (Cst.Topology.mirror_node t8 (Cst.Topology.mirror_node t8 v))
  done

let test_mirror_node_interval () =
  for v = 1 to 15 do
    let lo, hi = Cst.Topology.interval t8 v in
    let lo', hi' = Cst.Topology.interval t8 (Cst.Topology.mirror_node t8 v) in
    check_int "reflected lo" (8 - hi) lo';
    check_int "reflected hi" (8 - lo) hi'
  done

(* Brute-force pinning of the depth-table-backed operations, for every
   node of every tree size in {2, 4, ..., 256}.  The references use only
   first-principles definitions (child recursion, linear search), never
   the formulas under test. *)

let sizes = [ 2; 4; 8; 16; 32; 64; 128; 256 ]

let brute_interval t v =
  let rec go v =
    if Cst.Topology.is_leaf t v then
      let p = Cst.Topology.pe_of_node t v in
      (p, p + 1)
    else
      let llo, _ = go (Cst.Topology.left t v) in
      let _, rhi = go (Cst.Topology.right t v) in
      (llo, rhi)
  in
  go v

let brute_level t v =
  (* distance to a leaf by walking left children *)
  let rec go v acc =
    if Cst.Topology.is_leaf t v then acc
    else go (Cst.Topology.left t v) (acc + 1)
  in
  go v 0

let test_interval_bruteforce () =
  List.iter
    (fun leaves ->
      let t = Cst.Topology.create ~leaves in
      for v = 1 to Cst.Topology.num_nodes t do
        check_true
          (Printf.sprintf "interval leaves=%d v=%d" leaves v)
          (Cst.Topology.interval t v = brute_interval t v)
      done)
    sizes

let test_mid_bruteforce () =
  List.iter
    (fun leaves ->
      let t = Cst.Topology.create ~leaves in
      for v = 1 to leaves - 1 do
        (* definition: first leaf of the right child's subtree *)
        let expect = fst (brute_interval t (Cst.Topology.right t v)) in
        check_int
          (Printf.sprintf "mid leaves=%d v=%d" leaves v)
          expect (Cst.Topology.mid t v)
      done)
    sizes

let test_mirror_bruteforce () =
  List.iter
    (fun leaves ->
      let t = Cst.Topology.create ~leaves in
      for v = 1 to Cst.Topology.num_nodes t do
        (* definition: the same-level node covering the reflected interval,
           found by linear search *)
        let lo, hi = brute_interval t v in
        let target = (leaves - hi, leaves - lo) in
        let found = ref 0 in
        for u = 1 to Cst.Topology.num_nodes t do
          if
            brute_level t u = brute_level t v
            && brute_interval t u = target
          then found := u
        done;
        check_int
          (Printf.sprintf "mirror leaves=%d v=%d" leaves v)
          !found
          (Cst.Topology.mirror_node t v)
      done)
    sizes

let test_lca_bruteforce () =
  let brute_lca t a b =
    (* deepest node whose interval contains both leaves' intervals *)
    let pa = Cst.Topology.path_to_root t a
    and pb = Cst.Topology.path_to_root t b in
    let common = List.filter (fun v -> List.mem v pb) pa in
    List.hd common
  in
  List.iter
    (fun leaves ->
      let t = Cst.Topology.create ~leaves in
      let n = Cst.Topology.num_nodes t in
      (* all pairs on small trees, a deterministic stride sample above *)
      let step = if n <= 63 then 1 else 13 in
      let a = ref 1 in
      while !a <= n do
        let b = ref 1 in
        while !b <= n do
          check_int
            (Printf.sprintf "lca leaves=%d (%d,%d)" leaves !a !b)
            (brute_lca t !a !b)
            (Cst.Topology.lca t !a !b);
          b := !b + step
        done;
        a := !a + step
      done)
    sizes

let test_level_table () =
  List.iter
    (fun leaves ->
      let t = Cst.Topology.create ~leaves in
      for v = 1 to Cst.Topology.num_nodes t do
        check_int
          (Printf.sprintf "level leaves=%d v=%d" leaves v)
          (brute_level t v) (Cst.Topology.level t v);
        check_int "level_u agrees" (Cst.Topology.level t v)
          (Cst.Topology.level_u t v);
        check_int "depth_u complements level"
          (Cst.Topology.levels t - Cst.Topology.level t v)
          (Cst.Topology.depth_u t v)
      done)
    sizes

let test_unchecked_children () =
  let t = Cst.Topology.create ~leaves:64 in
  for v = 1 to 63 do
    check_int "left_u" (Cst.Topology.left t v) (Cst.Topology.left_u v);
    check_int "right_u" (Cst.Topology.right t v) (Cst.Topology.right_u v)
  done;
  for v = 2 to Cst.Topology.num_nodes t do
    check_int "parent_u" (Cst.Topology.parent t v) (Cst.Topology.parent_u v)
  done

let prop_lca_interval =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"lca interval contains both leaves"
       QCheck.(pair (int_bound 63) (int_bound 63))
       (fun (a, b) ->
         let t = topo 64 in
         let na = Cst.Topology.node_of_pe t a
         and nb = Cst.Topology.node_of_pe t b in
         let l = Cst.Topology.lca t na nb in
         let lo, hi = Cst.Topology.interval t l in
         a >= lo && a < hi && b >= lo && b < hi))

let prop_interval_parent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"child intervals partition the parent"
       QCheck.(int_range 1 31)
       (fun v ->
         let t = topo 32 in
         if Cst.Topology.is_leaf t v then true
         else
           let lo, hi = Cst.Topology.interval t v in
           let llo, lhi = Cst.Topology.interval t (Cst.Topology.left t v) in
           let rlo, rhi = Cst.Topology.interval t (Cst.Topology.right t v) in
           llo = lo && lhi = rlo && rhi = hi
           && rlo = Cst.Topology.mid t v))

let suite =
  [
    case "create invalid" test_create_invalid;
    case "counts" test_counts;
    case "leaf mapping" test_leaf_mapping;
    case "parent/children" test_parent_children;
    case "child side" test_child_side;
    case "levels" test_levels;
    case "lca" test_lca;
    case "interval" test_interval;
    case "mid" test_mid;
    case "path to root" test_path_to_root;
    case "internal iteration order" test_internal_iteration;
    case "mirror node" test_mirror_node;
    case "mirror node intervals" test_mirror_node_interval;
    case "interval vs brute force" test_interval_bruteforce;
    case "mid vs brute force" test_mid_bruteforce;
    case "mirror vs brute force" test_mirror_bruteforce;
    case "lca vs brute force" test_lca_bruteforce;
    case "level table" test_level_table;
    case "unchecked accessors" test_unchecked_children;
    prop_lca_interval;
    prop_interval_parent;
  ]
