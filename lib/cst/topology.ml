type t = {
  shape : Shape.t;
  leaves : int;
  levels : int;
  binary : bool;
  offsets : int array;
      (* offsets.(d) = id of the first node at depth d (BFS numbering:
         1 + nodes above depth d).  On the binary shape this is 2^d, so
         ids coincide with the classic heap numbering. *)
  spans : int array;  (* spans.(d) = leaves covered by one depth-d node *)
  fanouts : int array;  (* fanouts.(d) = children per node at depth d *)
  caps : int array;  (* caps.(d) = uplink capacity of a depth-d node *)
  num_nodes : int;
  depth : int array;
      (* depth.(v) for v in [1 .. num_nodes]; slot 0 unused.  Leaves sit
         at depth [levels], the root at depth 0. *)
}

let of_shape shape =
  let levels = Shape.levels shape in
  let leaves = Shape.leaves shape in
  let sizes = Shape.sizes shape in
  let offsets = Array.make (levels + 2) 1 in
  for d = 0 to levels do
    offsets.(d + 1) <- offsets.(d) + sizes.(d)
  done;
  let num_nodes = offsets.(levels + 1) - 1 in
  let spans = Array.map (fun s -> leaves / s) sizes in
  let fanouts = Array.init levels (fun d -> sizes.(d + 1) / sizes.(d)) in
  let depth = Array.make (num_nodes + 1) 0 in
  for d = 0 to levels do
    for v = offsets.(d) to offsets.(d + 1) - 1 do
      depth.(v) <- d
    done
  done;
  {
    shape;
    leaves;
    levels;
    binary = Shape.is_binary shape;
    offsets;
    spans;
    fanouts;
    caps = Shape.caps shape;
    num_nodes;
    depth;
  }

let create ~leaves = of_shape (Shape.binary ~leaves)
let shape t = t.shape
let is_binary t = t.binary
let leaves t = t.leaves
let levels t = t.levels
let num_nodes t = t.num_nodes
let root = 1
let spec_cycles t ~rounds = t.levels + (rounds * (t.levels + 1))

let engine_cost t ~rounds =
  let links = if t.binary then 2 * (t.leaves - 1) else 2 * (t.num_nodes - 1) in
  (1 + t.levels + (rounds * (t.levels + 2)), links * (rounds + 1))

let check_node t v =
  if v < 1 || v > t.num_nodes then
    invalid_arg (Printf.sprintf "Topology: bad node %d" v)

let first_leaf t = t.offsets.(t.levels)

let is_leaf t v =
  check_node t v;
  v >= t.offsets.(t.levels)

let is_internal t v = not (is_leaf t v)

let node_of_pe t p =
  if p < 0 || p >= t.leaves then invalid_arg "Topology.node_of_pe";
  t.offsets.(t.levels) + p

let pe_of_node t v =
  if not (is_leaf t v) then invalid_arg "Topology.pe_of_node: internal node";
  v - t.offsets.(t.levels)

let parent t v =
  check_node t v;
  if v = root then invalid_arg "Topology.parent: root"
  else
    let d = t.depth.(v) in
    t.offsets.(d - 1) + ((v - t.offsets.(d)) / t.fanouts.(d - 1))

let fanout_of t v =
  if is_leaf t v then 0 else t.fanouts.(t.depth.(v))

let child t v j =
  if is_leaf t v then invalid_arg "Topology.child: leaf";
  let d = t.depth.(v) in
  let f = t.fanouts.(d) in
  if j < 0 || j >= f then invalid_arg "Topology.child: bad child index";
  t.offsets.(d + 1) + ((v - t.offsets.(d)) * f) + j

let left t v =
  if is_leaf t v then invalid_arg "Topology.left: leaf"
  else
    let d = t.depth.(v) in
    t.offsets.(d + 1) + ((v - t.offsets.(d)) * t.fanouts.(d))

let right t v =
  if is_leaf t v then invalid_arg "Topology.right: leaf"
  else
    let d = t.depth.(v) in
    t.offsets.(d + 1) + ((v - t.offsets.(d)) * t.fanouts.(d)) + 1

(* Unchecked binary-only accessors: callers guarantee a binary topology
   (where BFS ids are heap ids) and 1 <= v <= 2*leaves-1, with
   internality where children are taken. *)
let left_u v = v lsl 1
let right_u v = (v lsl 1) lor 1
let parent_u v = v lsr 1
let depth_u t v = Array.unsafe_get t.depth v
let level_u t v = t.levels - Array.unsafe_get t.depth v

let child_index t v =
  check_node t v;
  if v = root then invalid_arg "Topology.child_index: root"
  else
    let d = t.depth.(v) in
    (v - t.offsets.(d)) mod t.fanouts.(d - 1)

let child_side t v =
  check_node t v;
  if v = root then invalid_arg "Topology.child_side: root"
  else
    let d = t.depth.(v) in
    let f = t.fanouts.(d - 1) in
    if f <> 2 then invalid_arg "Topology.child_side: parent fanout is not 2"
    else if (v - t.offsets.(d)) mod 2 = 0 then Side.L
    else Side.R

let level t v =
  check_node t v;
  level_u t v

let up t v =
  let d = t.depth.(v) in
  t.offsets.(d - 1) + ((v - t.offsets.(d)) / t.fanouts.(d - 1))

let lca t a b =
  check_node t a;
  check_node t b;
  (* Equalize depths via the depth table, then climb in lock-step. *)
  let a = ref a and b = ref b in
  let da = ref t.depth.(!a) and db = ref t.depth.(!b) in
  while !da > !db do
    a := up t !a;
    decr da
  done;
  while !db > !da do
    b := up t !b;
    decr db
  done;
  while !a <> !b do
    a := up t !a;
    b := up t !b
  done;
  !a

let interval t v =
  check_node t v;
  (* The subtree of v spans a contiguous block of leaves whose size is
     determined by v's depth. *)
  let d = t.depth.(v) in
  let size = t.spans.(d) in
  let lo = (v - t.offsets.(d)) * size in
  (lo, lo + size)

let mid t v =
  if is_leaf t v then invalid_arg "Topology.mid: leaf";
  (* First leaf not covered by v's first child: the boundary between
     child 0 and child 1 (the left/right split point on fanout 2). *)
  let d = t.depth.(v) in
  let lo = (v - t.offsets.(d)) * t.spans.(d) in
  lo + t.spans.(d + 1)

let mirror_node t v =
  check_node t v;
  (* Reflection reverses the node order within each depth. *)
  let d = t.depth.(v) in
  (2 * t.offsets.(d)) + (t.spans.(0) / t.spans.(d)) - 1 - v

let uplink_cap t v =
  check_node t v;
  if v = root then invalid_arg "Topology.uplink_cap: root"
  else t.caps.(t.depth.(v))

let parent_table t =
  let pt = Array.make (t.num_nodes + 1) 0 in
  for v = 2 to t.num_nodes do
    pt.(v) <- up t v
  done;
  pt

let cap_table t =
  let ct = Array.make (t.num_nodes + 1) 0 in
  for v = 2 to t.num_nodes do
    ct.(v) <- t.caps.(t.depth.(v))
  done;
  ct

let path_to_root t v =
  check_node t v;
  let rec go v acc =
    if v = root then List.rev (v :: acc) else go (up t v) (v :: acc)
  in
  go v []

let internal_nodes t = Seq.init (t.offsets.(t.levels) - 1) (fun i -> i + 1)

let pp fmt t =
  if t.binary then
    Format.fprintf fmt "CST(leaves=%d, levels=%d, switches=%d)" t.leaves
      t.levels (t.leaves - 1)
  else
    Format.fprintf fmt "CST(leaves=%d, levels=%d, switches=%d, shape=%s)"
      t.leaves t.levels
      (t.offsets.(t.levels) - 1)
      (Shape.to_string t.shape)
