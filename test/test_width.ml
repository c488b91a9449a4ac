open Helpers

let width ~leaves pairs = Cst_comm.Width.width ~leaves (set ~n:leaves pairs)

let test_hand_computed () =
  check_int "trace1" 2 (width ~leaves:8 [ (0, 7); (1, 2); (3, 4) ]);
  check_int "pairs" 1 (width ~leaves:8 [ (0, 1); (2, 3); (4, 5); (6, 7) ]);
  check_int "onion" 4 (width ~leaves:8 [ (0, 7); (1, 6); (2, 5); (3, 4) ]);
  check_int "empty" 0 (width ~leaves:8 [])

let test_width_is_not_depth () =
  (* (0,7) and (2,3): nesting depth 2 but no shared directed link. *)
  check_int "depth 2, width 1" 1 (width ~leaves:8 [ (0, 7); (2, 3) ])

let test_left_oriented_supported () =
  check_int "mirrored onion" 4
    (Cst_comm.Width.width ~leaves:8 (set ~n:8 [ (7, 0); (6, 1); (5, 2); (4, 3) ]))

let test_crossings_detail () =
  let s = set ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  let c = Cst_comm.Width.crossings ~leaves:8 s in
  (* node 4 covers PEs 0-1: sources 0 and 1 go up. *)
  check_int "up at node 4" 2 c.up.(4);
  check_int "down at node 4" 0 c.down.(4);
  (* node 5 covers PEs 2-3: dest 2 comes down, source 3 goes up. *)
  check_int "up at node 5" 1 c.up.(5);
  check_int "down at node 5" 1 c.down.(5);
  (* root children: 2 covers 0-3, 3 covers 4-7. *)
  check_int "up into root" 2 c.up.(2);
  check_int "down from root" 2 c.down.(3)

let test_width_auto () =
  check_int "auto rounds up leaves" 1
    (Cst_comm.Width.width_auto (set ~n:6 [ (0, 5) ]))

let test_leaves_validation () =
  check_raises_invalid "not a power of two" (fun () ->
      Cst_comm.Width.width ~leaves:6 (set ~n:4 [ (0, 1) ]));
  check_raises_invalid "too small" (fun () ->
      Cst_comm.Width.width ~leaves:4 (set ~n:8 [ (0, 7) ]))

let test_classify () =
  let open Cst_comm.Width in
  let k c = classify ~lo:4 ~mid:8 ~hi:12 c in
  check_true "matched" (k (comm (5, 9)) = Matched);
  check_true "internal left" (k (comm (5, 6)) = Internal);
  check_true "internal right" (k (comm (9, 10)) = Internal);
  check_true "source up" (k (comm (5, 14)) = Source_up);
  check_true "dest down" (k (comm (1, 9)) = Dest_down);
  check_true "external" (k (comm (0, 2)) = External);
  check_true "spanning is external" (k (comm (0, 15)) = External)

let test_classify_rejects_left () =
  check_raises_invalid "left-oriented" (fun () ->
      Cst_comm.Width.classify ~lo:0 ~mid:2 ~hi:4 (comm (3, 1)))

let prop_fast_equals_naive =
  prop "crossings agree with naive recomputation" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      Cst_comm.Width.check_against_naive ~leaves s)

let prop_width_positive =
  prop "width is 0 iff the set is empty" (fun params ->
      let s = set_of_params params in
      Cst_comm.Width.width_auto s = 0 = (Cst_comm.Comm_set.size s = 0))

let prop_width_le_size =
  prop "width <= number of communications" (fun params ->
      let s = set_of_params params in
      Cst_comm.Width.width_auto s <= max 1 (Cst_comm.Comm_set.size s))

(* [width] runs on a per-domain scratch that must be all zero again
   after every call: interleaving leaf counts and repeating a call never
   changes its answer, which is the largest [crossings] entry. *)
let prop_width_scratch_resets =
  prop "width = max crossings across scratch reuse" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      let reference =
        let c = Cst_comm.Width.crossings ~leaves s in
        max (Array.fold_left max 0 c.up) (Array.fold_left max 0 c.down)
      in
      let first = Cst_comm.Width.width ~leaves s in
      let again = Cst_comm.Width.width ~leaves s in
      let bigger = Cst_comm.Width.width ~leaves:(2 * leaves) s in
      let after = Cst_comm.Width.width ~leaves s in
      first = reference && again = reference && bigger = reference
      && after = reference)

let suite =
  [
    case "hand-computed widths" test_hand_computed;
    case "width is not nesting depth" test_width_is_not_depth;
    case "left-oriented supported" test_left_oriented_supported;
    case "crossings detail" test_crossings_detail;
    case "width_auto" test_width_auto;
    case "leaves validation" test_leaves_validation;
    case "classify (figure 4a)" test_classify;
    case "classify rejects left-oriented" test_classify_rejects_left;
    prop_fast_equals_naive;
    prop_width_positive;
    prop_width_le_size;
    prop_width_scratch_resets;
  ]
