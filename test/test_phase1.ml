open Helpers

(* Hand-checked register contents for the set {0->7, 1->2, 3->4} on an
   8-leaf CST (the example traced in DESIGN.md). *)
let test_registers_hand_example () =
  let t = topo 8 in
  let s = set ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  let p1 = Padr.Phase1.run t s in
  let st = Padr.Phase1.state p1 in
  let expect node m sl dl sr dr =
    let v = st node in
    check_true
      (Printf.sprintf "node %d: got %s" node
         (Format.asprintf "%a" Padr.Csa_state.pp v))
      (Padr.Csa_state.equal v (Padr.Csa_state.make ~m ~sl ~dl ~sr ~dr))
  in
  expect 4 0 1 0 1 0;
  (* PEs 0,1 both sources *)
  expect 5 0 0 1 1 0;
  (* PE 2 dest from above, PE 3 source *)
  expect 6 0 0 1 0 0;
  (* PE 4 dest *)
  expect 7 0 0 0 0 1;
  (* PE 7 dest *)
  expect 2 1 1 0 1 0;
  (* 1->2 matched here *)
  expect 3 0 0 1 0 1;
  expect 1 2 0 0 0 0
(* 0->7 and 3->4 matched at the root *)

let test_total_matched () =
  let t = topo 8 in
  let s = set ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  check_int "all comms matched somewhere" 3
    (Padr.Phase1.total_matched (Padr.Phase1.run t s))

let test_empty_set () =
  let t = topo 8 in
  let p1 = Padr.Phase1.run t (set ~n:8 []) in
  check_int "nothing matched" 0 (Padr.Phase1.total_matched p1);
  for node = 1 to 7 do
    check_true "drained" (Padr.Csa_state.is_drained (Padr.Phase1.state p1 node))
  done

let test_matched_at_lca () =
  (* Every communication is matched exactly at its LCA. *)
  let t = topo 16 in
  let s = set ~n:16 [ (0, 15); (1, 6); (2, 3); (8, 13) ] in
  let p1 = Padr.Phase1.run t s in
  let st = Padr.Phase1.state p1 in
  check_int "root" 1 (st 1).m;
  (* (1,6): leaves 17 and 22, lca 2 *)
  check_int "node 2" 1 (st 2).m;
  (* (2,3): leaves 18,19, lca 9 *)
  check_int "node 9" 1 (st 9).m;
  (* (8,13): leaves 24,29, lca 3 *)
  check_int "node 3" 1 (st 3).m

let test_small_set_on_large_tree () =
  let t = topo 64 in
  let s = set ~n:8 [ (0, 7) ] in
  let p1 = Padr.Phase1.run t s in
  check_int "matched once" 1 (Padr.Phase1.total_matched p1)

let test_rejects_left_oriented () =
  let t = topo 8 in
  check_raises_invalid "left-oriented" (fun () ->
      Padr.Phase1.run t (set ~n:8 [ (5, 2) ]))

let test_rejects_oversized () =
  let t = topo 8 in
  check_raises_invalid "too many PEs" (fun () ->
      Padr.Phase1.run t (set ~n:16 [ (0, 15) ]))

let test_rejects_non_binary () =
  let t = Cst.Topology.of_shape (Cst.Shape.kary ~k:4 ~leaves:16) in
  check_raises_invalid "4-ary tree" (fun () ->
      Padr.Phase1.run t (set ~n:16 [ (0, 15) ]))

let test_state_words_constant () =
  check_int "5 words" 5 (Padr.Csa_state.words (Padr.Csa_state.zero ()));
  check_int "message words" 2 Padr.Phase1.up_words_per_message

let prop_matched_equals_size =
  prop "sum of matched pairs = set size" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      Padr.Phase1.total_matched (Padr.Phase1.run t s)
      = Cst_comm.Comm_set.size s)

let prop_crossing_counts =
  prop "registers consistent with link crossings" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let t = Cst.Topology.create ~leaves in
      let p1 = Padr.Phase1.run t s in
      let cr = Cst_comm.Width.crossings ~leaves s in
      let ok = ref true in
      for node = 1 to leaves - 1 do
        let st = Padr.Phase1.state p1 node in
        let y = Cst.Topology.left t node and z = Cst.Topology.right t node in
        (* S_L = crossings up from the left child, etc. *)
        if st.m + st.sl <> cr.up.(y) then ok := false;
        if st.dl <> cr.down.(y) then ok := false;
        if st.sr <> cr.up.(z) then ok := false;
        if st.m + st.dr <> cr.down.(z) then ok := false
      done;
      !ok)

(* The spec and the engine reuse one register array per domain: [fill]
   must overwrite whatever an earlier set's run, stopped mid-schedule,
   left there. *)
let prop_fill_overwrites_dirty_registers =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"fill over dirty registers equals a fresh run"
       (QCheck.pair arbitrary_wn_set arbitrary_wn_set)
       (fun (pa, pb) ->
         let a = set_of_params pa and b = set_of_params pb in
         let leaves =
           max (Cst_comm.Comm_set.n a) (Cst_comm.Comm_set.n b)
         in
         let t = Cst.Topology.create ~leaves in
         Padr.Round.with_workspace t @@ fun ws ->
         ignore (Padr.Round.prepare ws t a);
         ignore (Padr.Round.sweep t ws);
         Padr.Phase1.fill t b ws.states;
         let fresh = Padr.Phase1.run t b in
         List.for_all
           (fun node ->
             Padr.Csa_state.equal ws.states.(node)
               (Padr.Phase1.state fresh node))
           (List.init (leaves - 1) (fun i -> i + 1))))

let suite =
  [
    case "registers: hand example" test_registers_hand_example;
    case "total matched" test_total_matched;
    case "empty set" test_empty_set;
    case "matched at lca" test_matched_at_lca;
    case "small set on large tree" test_small_set_on_large_tree;
    case "rejects left-oriented" test_rejects_left_oriented;
    case "rejects oversized" test_rejects_oversized;
    case "rejects non-binary" test_rejects_non_binary;
    case "constant words" test_state_words_constant;
    prop_matched_equals_size;
    prop_crossing_counts;
    prop_fill_overwrites_dirty_registers;
  ]
