type dir = Up | Down

(* Calls [f v dir] on every directed link of [c]'s path.  BFS ids grow
   parent-to-child, so the larger endpoint is never an ancestor of the
   smaller and climbing it converges on the LCA. *)
let iter_links topo (c : Cst_comm.Comm.t) f =
  let a = ref (Topology.node_of_pe topo c.src)
  and b = ref (Topology.node_of_pe topo c.dst) in
  while !a <> !b do
    if !a > !b then begin
      f !a Up;
      a := Topology.parent topo !a
    end
    else begin
      f !b Down;
      b := Topology.parent topo !b
    end
  done

let link_footprint topo c =
  let acc = ref [] in
  iter_links topo c (fun v d -> acc := (v, d) :: !acc);
  !acc

let congestion_table topo comms =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      iter_links topo c (fun v d ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt tbl (v, d)) in
          Hashtbl.replace tbl (v, d) (cur + 1)))
    comms;
  tbl

let conflict topo a b =
  let fa = link_footprint topo a in
  let fb = link_footprint topo b in
  List.exists (fun l -> List.mem l fb) fa

let max_congestion topo comms =
  Hashtbl.fold (fun _ v acc -> max v acc) (congestion_table topo comms) 0

let is_compatible topo comms =
  Hashtbl.fold
    (fun (v, _) n ok -> ok && n <= Topology.uplink_cap topo v)
    (congestion_table topo comms)
    true

module Load = struct
  (* Per-direction counts of each node's uplink, and the nodes with a
     non-zero count, once each, so [clear] costs what was charged. *)
  type t = {
    topo : Topology.t;
    up : int array;
    down : int array;
    touched : int array;
    mutable n_touched : int;
    mutable width : int;
  }

  let create topo =
    let table () = Array.make (Topology.num_nodes topo + 1) 0 in
    let up = table () and down = table () and touched = table () in
    { topo; up; down; touched; n_touched = 0; width = 0 }

  let width l = l.width

  let charge l set =
    if Cst_comm.Comm_set.n set > Topology.leaves l.topo then
      invalid_arg "Compat: set has more PEs than leaves";
    let bump v d =
      if l.up.(v) + l.down.(v) = 0 then begin
        l.touched.(l.n_touched) <- v;
        l.n_touched <- l.n_touched + 1
      end;
      let counts = match d with Up -> l.up | Down -> l.down in
      let x = counts.(v) + 1 in
      counts.(v) <- x;
      let cap = Topology.uplink_cap l.topo v in
      let w = (x + cap - 1) / cap in
      if w > l.width then l.width <- w
    in
    Array.iter (fun c -> iter_links l.topo c bump) (Cst_comm.Comm_set.comms set)

  let clear l =
    for i = 0 to l.n_touched - 1 do
      l.up.(l.touched.(i)) <- 0;
      l.down.(l.touched.(i)) <- 0
    done;
    l.n_touched <- 0;
    l.width <- 0
end

let width topo set =
  if Topology.is_binary topo then
    Cst_comm.Width.width ~leaves:(Topology.leaves topo) set
  else begin
    let l = Load.create topo in
    Load.charge l set;
    Load.width l
  end
