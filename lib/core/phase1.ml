type t = { states : Csa_state.t array }

(* Step 1.3 at one switch, from the [S, D] words its children sent up. *)
let[@inline] combine (st : Csa_state.t) ~s_l ~d_l ~s_r ~d_r =
  let m = min s_l d_r in
  st.m <- m;
  st.sl <- s_l - m;
  st.dl <- d_l;
  st.sr <- s_r;
  st.dr <- d_r - m

let fill topo set states =
  let leaves = Cst.Topology.leaves topo in
  let roles = Cst_comm.Comm_set.roles set in
  let role pe =
    if pe < Array.length roles then roles.(pe) else Cst_comm.Comm_set.Idle
  in
  (* Step 1.1: a source reports [1,0], a destination [0,1]. *)
  let s pe = match role pe with Source _ -> 1 | Dest _ | Idle -> 0
  and d pe = match role pe with Dest _ -> 1 | Source _ | Idle -> 0 in
  (* Steps 1.2-1.3, children before parents.  The lowest switches read
     their leaves' reports; every other switch reads its children's
     registers, whose upward word is [sl + sr, dl + dr]. *)
  for u = leaves - 1 downto leaves / 2 do
    let pe = (2 * u) - leaves in
    combine states.(u) ~s_l:(s pe) ~d_l:(d pe) ~s_r:(s (pe + 1))
      ~d_r:(d (pe + 1))
  done;
  for u = (leaves / 2) - 1 downto 1 do
    let y = states.(Cst.Topology.left_u u)
    and z = states.(Cst.Topology.right_u u) in
    combine states.(u) ~s_l:(y.sl + y.sr) ~d_l:(y.dl + y.dr) ~s_r:(z.sl + z.sr)
      ~d_r:(z.dl + z.dr)
  done;
  (* A valid right-oriented set leaves no residue at the root. *)
  let r = states.(Cst.Topology.root) in
  assert (r.sl + r.sr = 0 && r.dl + r.dr = 0)

let run topo set =
  if not (Cst.Topology.is_binary topo) then
    invalid_arg "Phase1.run: the topology is not the binary tree";
  if Cst_comm.Comm_set.n set > Cst.Topology.leaves topo then
    invalid_arg "Phase1.run: set does not fit the topology";
  if not (Cst_comm.Comm_set.is_right_oriented set) then
    invalid_arg "Phase1.run: set must be right-oriented";
  let states =
    Array.init (Cst.Topology.leaves topo) (fun _ -> Csa_state.zero ())
  in
  fill topo set states;
  { states }

let state t u = t.states.(u)

let total_matched t =
  Array.fold_left (fun acc (s : Csa_state.t) -> acc + s.m) 0 t.states

let up_words_per_message = 2
