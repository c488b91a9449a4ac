module Cs = Cst_comm.Comm_set
module W = Cst_comm.Width

type cost = { width : float; load : float }

type tree = {
  leaves : int;
  parent : int array;
  cap : int array;
  first_leaf : int;
  topo : Cst.Topology.t;
}

let tree_of ?shape n_pes =
  let topo =
    match shape with
    | Some s ->
        if Cst.Shape.leaves s < n_pes then
          invalid_arg "Optimize: shape has fewer leaves than profile PEs";
        Cst.Topology.of_shape s
    | None ->
        Cst.Topology.create ~leaves:(Cst_util.Bits.ceil_pow2 (max 2 n_pes))
  in
  {
    leaves = Cst.Topology.leaves topo;
    parent = Cst.Topology.parent_table topo;
    cap = Cst.Topology.cap_table topo;
    first_leaf = Cst.Topology.first_leaf topo;
    topo;
  }

let tree_leaves ?shape profile = (tree_of ?shape (Profile.n profile)).leaves

(* Accumulate [sgn * w] along the leaf-to-LCA walk of one pair — the
   float twin of [Cst.Compat.Load.charge]: ids increase parent-to-child,
   so the deeper endpoint is always the larger id. *)
let walk_pair tree leaf_of up down sgn p q w =
  let a = ref (tree.first_leaf + leaf_of.(p)) in
  let b = ref (tree.first_leaf + leaf_of.(q)) in
  while !a <> !b do
    if !a > !b then begin
      up.(!a) <- up.(!a) +. (sgn *. w);
      a := tree.parent.(!a)
    end
    else begin
      down.(!b) <- down.(!b) +. (sgn *. w);
      b := tree.parent.(!b)
    end
  done

let cost_of_arrays tree up down =
  let width = ref 0.0 and load = ref 0.0 in
  for v = 2 to Array.length tree.parent - 1 do
    let c = tree.cap.(v) in
    if c > 0 then begin
      let fc = float_of_int c in
      let u = up.(v) /. fc and d = down.(v) /. fc in
      if u > !width then width := u;
      if d > !width then width := d;
      load := !load +. u +. d
    end
  done;
  { width = !width; load = !load }

let cost_of_leaf_table tree pairs leaf_of =
  let len = Array.length tree.parent in
  let up = Array.make len 0.0 and down = Array.make len 0.0 in
  Array.iter (fun (p, q, w) -> walk_pair tree leaf_of up down 1.0 p q w) pairs;
  cost_of_arrays tree up down

let cost ?shape profile mapping =
  let tree = tree_of ?shape (Profile.n profile) in
  if Mapping.n mapping <> tree.leaves then
    invalid_arg "Optimize.cost: mapping does not span the tree's leaves";
  cost_of_leaf_table tree (Profile.pairs profile) (Mapping.to_array mapping)

let expected_width ?shape profile mapping = (cost ?shape profile mapping).width

(* [a] strictly beats [b]: smaller width, or equal width and smaller
   total load. *)
let beats a b =
  a.width < b.width -. 1e-9
  || (a.width < b.width +. 1e-9 && a.load < b.load -. 1e-9)

(* Recursive balanced partition: at node [v] split the PE group into
   chunks matching the children's leaf counts, minimizing inter-chunk
   demand with KL-style first-improvement swaps, then recurse. *)
let partition tree adj tot =
  let ln = tree.leaves in
  let topo = tree.topo in
  let leaf_of = Array.make ln (-1) in
  let chunk_of = Array.make ln (-1) in
  let inc_rows = Array.make ln [||] in
  let sym_w =
    let tbl = Hashtbl.create 256 in
    Array.iteri
      (fun u l ->
        List.iter (fun (x, w) -> if u < x then Hashtbl.replace tbl ((u * ln) + x) w) l)
      adj;
    fun u v ->
      let lo = min u v and hi = max u v in
      Option.value (Hashtbl.find_opt tbl ((lo * ln) + hi)) ~default:0.0
  in
  let refine chunks =
    let k = Array.length chunks in
    Array.iteri
      (fun j ch -> Array.iter (fun pe -> chunk_of.(pe) <- j) ch)
      chunks;
    Array.iter
      (fun ch ->
        Array.iter
          (fun pe ->
            let row = Array.make k 0.0 in
            List.iter
              (fun (x, w) ->
                let j = chunk_of.(x) in
                if j >= 0 then row.(j) <- row.(j) +. w)
              adj.(pe);
            inc_rows.(pe) <- row)
          ch)
      chunks;
    let improved = ref true in
    let passes = ref 0 in
    while !improved && !passes < 6 do
      improved := false;
      incr passes;
      for j1 = 0 to k - 2 do
        for j2 = j1 + 1 to k - 1 do
          let c1 = chunks.(j1) and c2 = chunks.(j2) in
          (* Candidate indices: demand-carrying members plus one idle
             representative per chunk (all idle slots are equivalent). *)
          let cands c =
            let out = ref [] and idle = ref (-1) in
            Array.iteri
              (fun i pe ->
                if tot.(pe) > 0.0 then out := i :: !out
                else if !idle < 0 then idle := i)
              c;
            if !idle >= 0 then out := !idle :: !out;
            List.rev !out
          in
          let cand1 = cands c1 and cand2 = cands c2 in
          List.iter
            (fun i1 ->
              List.iter
                (fun i2 ->
                  let u = c1.(i1) and v = c2.(i2) in
                  if tot.(u) > 0.0 || tot.(v) > 0.0 then begin
                    let delta =
                      inc_rows.(u).(j1) -. inc_rows.(u).(j2)
                      +. inc_rows.(v).(j2) -. inc_rows.(v).(j1)
                      +. (2.0 *. sym_w u v)
                    in
                    if delta < -1e-12 then begin
                      c1.(i1) <- v;
                      c2.(i2) <- u;
                      chunk_of.(u) <- j2;
                      chunk_of.(v) <- j1;
                      List.iter
                        (fun (x, w) ->
                          if chunk_of.(x) >= 0 then begin
                            let r = inc_rows.(x) in
                            r.(j1) <- r.(j1) -. w;
                            r.(j2) <- r.(j2) +. w
                          end)
                        adj.(u);
                      List.iter
                        (fun (x, w) ->
                          if chunk_of.(x) >= 0 then begin
                            let r = inc_rows.(x) in
                            r.(j2) <- r.(j2) -. w;
                            r.(j1) <- r.(j1) +. w
                          end)
                        adj.(v);
                      improved := true
                    end
                  end)
                cand2)
            cand1
        done
      done
    done;
    Array.iter (fun ch -> Array.iter (fun pe -> chunk_of.(pe) <- -1) ch) chunks
  in
  let rec place v group =
    if Cst.Topology.is_leaf topo v then leaf_of.(group.(0)) <- v - tree.first_leaf
    else begin
      let k = Cst.Topology.fanout_of topo v in
      let children = Array.init k (Cst.Topology.child topo v) in
      let chunks =
        let off = ref 0 in
        Array.map
          (fun c ->
            let lo, hi = Cst.Topology.interval topo c in
            let s = hi - lo in
            let chunk = Array.sub group !off s in
            off := !off + s;
            chunk)
          children
      in
      if Array.length group > 1 then refine chunks;
      Array.iteri (fun j ch -> place children.(j) ch) chunks
    end
  in
  place Cst.Topology.root (Array.init ln Fun.id);
  leaf_of

(* Hill-climb on the true capacity-weighted objective: swap the leaf
   slots of two PEs when that strictly lowers (width, load).  Congestion
   arrays are maintained incrementally; only pairs incident to the
   swapped PEs are re-walked. *)
let global_refine tree pairs tot leaf_of ~passes =
  let ln = tree.leaves in
  let len = Array.length tree.parent in
  let up = Array.make len 0.0 and down = Array.make len 0.0 in
  Array.iter (fun (p, q, w) -> walk_pair tree leaf_of up down 1.0 p q w) pairs;
  let inc_pairs = Array.make ln [] in
  Array.iter
    (fun ((p, q, _) as pr) ->
      inc_pairs.(p) <- pr :: inc_pairs.(p);
      inc_pairs.(q) <- pr :: inc_pairs.(q))
    pairs;
  let pe_at = Array.make ln (-1) in
  Array.iteri (fun p l -> pe_at.(l) <- p) leaf_of;
  let actives =
    let all = ref [] in
    Array.iteri (fun p w -> if w > 0.0 then all := p :: !all) tot;
    let arr = Array.of_list !all in
    Array.sort (fun a b -> compare (-.tot.(a), a) (-.tot.(b), b)) arr;
    if Array.length arr > 96 then Array.sub arr 0 96 else arr
  in
  let current = ref (cost_of_arrays tree up down) in
  let swap_leaves u v =
    let lu = leaf_of.(u) and lv = leaf_of.(v) in
    leaf_of.(u) <- lv;
    leaf_of.(v) <- lu;
    pe_at.(lv) <- u;
    pe_at.(lu) <- v
  in
  let try_swap u v =
    if u = v || u < 0 || v < 0 then false
    else begin
      let affected =
        inc_pairs.(u)
        @ List.filter (fun (p, q, _) -> p <> u && q <> u) inc_pairs.(v)
      in
      let rewalk sgn =
        List.iter (fun (p, q, w) -> walk_pair tree leaf_of up down sgn p q w) affected
      in
      rewalk (-1.0);
      swap_leaves u v;
      rewalk 1.0;
      let c = cost_of_arrays tree up down in
      if beats c !current then begin
        current := c;
        true
      end
      else begin
        rewalk (-1.0);
        swap_leaves u v;
        rewalk 1.0;
        false
      end
    end
  in
  let pass () =
    let improved = ref false in
    Array.iter
      (fun u ->
        (* swap with other demand carriers *)
        Array.iter (fun v -> if try_swap u v then improved := true) actives;
        (* or with the occupants of slots adjacent to u's partners *)
        List.iter
          (fun (p, q, _) ->
            let other = if p = u then q else p in
            let l = leaf_of.(other) in
            if l > 0 && try_swap u pe_at.(l - 1) then improved := true;
            if l < ln - 1 && try_swap u pe_at.(l + 1) then improved := true)
          inc_pairs.(u))
      actives;
    !improved
  in
  let i = ref 0 in
  while !i < passes && pass () do
    incr i
  done;
  (* Orientation pass: a permutation can turn a right-oriented pair
     left-oriented, which costs the service an extra wave even at equal
     width.  Where the demand is directed, prefer [leaf src < leaf dst]
     whenever the swap does not worsen (width, load). *)
  let not_worse c =
    c.width <= !current.width +. 1e-9 && c.load <= !current.load +. 1e-9
  in
  Array.iter
    (fun (p, q, _) ->
      if leaf_of.(p) > leaf_of.(q) then begin
        let affected =
          inc_pairs.(p)
          @ List.filter (fun (a, b, _) -> a <> p && b <> p) inc_pairs.(q)
        in
        let rewalk sgn =
          List.iter
            (fun (a, b, w) -> walk_pair tree leaf_of up down sgn a b w)
            affected
        in
        rewalk (-1.0);
        swap_leaves p q;
        rewalk 1.0;
        let c = cost_of_arrays tree up down in
        if not_worse c then current := c
        else begin
          rewalk (-1.0);
          swap_leaves p q;
          rewalk 1.0
        end
      end)
    pairs;
  !current

let optimize ?shape ?(refine_passes = 3) profile =
  let tree = tree_of ?shape (Profile.n profile) in
  let ln = tree.leaves in
  let pairs = Profile.pairs profile in
  if Array.length pairs = 0 then Mapping.identity ~n:ln
  else begin
    let tot = Array.make ln 0.0 in
    Array.iter
      (fun (p, q, w) ->
        tot.(p) <- tot.(p) +. w;
        tot.(q) <- tot.(q) +. w)
      pairs;
    let adj =
      let sym = Hashtbl.create (2 * Array.length pairs) in
      Array.iter
        (fun (p, q, w) ->
          let lo = min p q and hi = max p q in
          let key = (lo * ln) + hi in
          let prev = Option.value (Hashtbl.find_opt sym key) ~default:0.0 in
          Hashtbl.replace sym key (prev +. w))
        pairs;
      let a = Array.make ln [] in
      Hashtbl.iter
        (fun key w ->
          let lo = key / ln and hi = key mod ln in
          a.(lo) <- (hi, w) :: a.(lo);
          a.(hi) <- (lo, w) :: a.(hi))
        sym;
      Array.iteri (fun i l -> a.(i) <- List.sort compare l) a;
      a
    in
    let leaf_of = partition tree adj tot in
    let c_cand = global_refine tree pairs tot leaf_of ~passes:refine_passes in
    let identity = Array.init ln Fun.id in
    let c_id = cost_of_leaf_table tree pairs identity in
    (* no-regression guarantee: keep identity unless strictly better *)
    if beats c_cand c_id then Mapping.of_array leaf_of else Mapping.identity ~n:ln
  end

let width_of_set ?shape mapping set =
  let mapped = Mapping.apply_set mapping set in
  match shape with
  | None ->
      if not (Cst_util.Bits.is_power_of_two (Mapping.n mapping)) then
        invalid_arg
          "Optimize.width_of_set: non-power-of-two mapping needs ~shape";
      W.width ~leaves:(Mapping.n mapping) mapped
  | Some s ->
      let topo = Cst.Topology.of_shape s in
      if Cst.Topology.leaves topo <> Mapping.n mapping then
        invalid_arg "Optimize.width_of_set: mapping/shape leaf mismatch";
      Cst.Compat.width topo mapped
