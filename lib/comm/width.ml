type crossings = {
  leaves : int;
  up : int array;
  down : int array;
}

let check_leaves ~leaves set =
  if not (Cst_util.Bits.is_power_of_two leaves) then
    invalid_arg "Width: leaves must be a power of two";
  if Comm_set.n set > leaves then
    invalid_arg "Width: set has more PEs than leaves"

let crossings ~leaves set =
  check_leaves ~leaves set;
  let up = Array.make (2 * leaves) 0 in
  let down = Array.make (2 * leaves) 0 in
  Array.iter
    (fun (c : Comm.t) ->
      let a = ref (leaves + c.src) and b = ref (leaves + c.dst) in
      (* Walk both endpoints to their LCA, charging the up links on the
         source side and the down links on the destination side. *)
      while !a <> !b do
        if !a > !b then begin
          up.(!a) <- up.(!a) + 1;
          a := !a / 2
        end
        else begin
          down.(!b) <- down.(!b) + 1;
          b := !b / 2
        end
      done)
    (Comm_set.comms set);
  { leaves; up; down }

(* Per-domain scratch of [width]: [crossings]' two tables for a
   [leaves]-leaf tree, all zero between calls.  [width] charges each
   communication's LCA walk into them, keeping the running maximum, then
   walks every communication again to zero exactly the links it charged:
   O(M log leaves) per call and nothing tree-sized allocated once the
   domain holds a scratch of this size.  As with the engine's workspace,
   the scratch is taken out of its slot for the call (a call that raised
   leaves none behind) and reused only for the same leaf count. *)
type scratch = { s_leaves : int; s_up : int array; s_down : int array }

let last_scratch : scratch option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let width ~leaves set =
  check_leaves ~leaves set;
  let s =
    match Domain.DLS.get last_scratch with
    | Some s when s.s_leaves = leaves ->
        Domain.DLS.set last_scratch None;
        s
    | _ ->
        {
          s_leaves = leaves;
          s_up = Array.make (2 * leaves) 0;
          s_down = Array.make (2 * leaves) 0;
        }
  in
  let up = s.s_up and down = s.s_down in
  let comms = Comm_set.comms set in
  let m = ref 0 in
  Array.iter
    (fun (c : Comm.t) ->
      let a = ref (leaves + c.src) and b = ref (leaves + c.dst) in
      while !a <> !b do
        if !a > !b then begin
          let x = up.(!a) + 1 in
          up.(!a) <- x;
          if x > !m then m := x;
          a := !a / 2
        end
        else begin
          let x = down.(!b) + 1 in
          down.(!b) <- x;
          if x > !m then m := x;
          b := !b / 2
        end
      done)
    comms;
  Array.iter
    (fun (c : Comm.t) ->
      let a = ref (leaves + c.src) and b = ref (leaves + c.dst) in
      while !a <> !b do
        if !a > !b then begin
          up.(!a) <- 0;
          a := !a / 2
        end
        else begin
          down.(!b) <- 0;
          b := !b / 2
        end
      done)
    comms;
  Domain.DLS.set last_scratch (Some s);
  !m

let width_auto set =
  width ~leaves:(Cst_util.Bits.ceil_pow2 (max 2 (Comm_set.n set))) set

let check_against_naive ~leaves set =
  let fast = crossings ~leaves set in
  let ok = ref true in
  (* Node v covers the leaf interval [lo, hi). *)
  let rec interval v =
    if v >= leaves then (v - leaves, v - leaves + 1)
    else
      let lo, _ = interval (2 * v) and _, hi = interval ((2 * v) + 1) in
      (lo, hi)
  in
  for v = 2 to (2 * leaves) - 1 do
    let lo, hi = interval v in
    let inside p = p >= lo && p < hi in
    let u = ref 0 and d = ref 0 in
    Array.iter
      (fun (c : Comm.t) ->
        if inside c.src && not (inside c.dst) then incr u;
        if inside c.dst && not (inside c.src) then incr d)
      (Comm_set.comms set);
    if !u <> fast.up.(v) || !d <> fast.down.(v) then ok := false
  done;
  !ok

type klass =
  | Matched
  | Source_up
  | Dest_down
  | Internal
  | External

let classify ~lo ~mid ~hi (c : Comm.t) =
  if not (Comm.is_right_oriented c) then
    invalid_arg "Width.classify: communication must be right-oriented";
  let inside p = p >= lo && p < hi in
  match (inside c.src, inside c.dst) with
  | false, false -> External
  | true, false -> Source_up
  | false, true -> Dest_down
  | true, true ->
      if c.src < mid && c.dst >= mid then Matched else Internal
