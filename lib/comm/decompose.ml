let split set =
  let right = Comm_set.filter set Comm.is_right_oriented in
  let left = Comm_set.filter set Comm.is_left_oriented in
  (right, left)

let is_oriented set =
  Comm_set.is_right_oriented set || Comm_set.is_left_oriented set

type block = { base : int; align : int; set : Comm_set.t }

(* Smallest aligned power-of-two interval containing [lo, hi] — the leaf
   interval of lca(lo, hi) in any complete binary tree the endpoints fit
   (the same computation as [Cst.Canon.place]). *)
let aligned_interval ~lo ~hi =
  let align = ref 1 in
  while lo / !align <> hi / !align do
    align := 2 * !align
  done;
  (lo / !align * !align, !align)

(* Same, over an explicit ascending ladder of admissible subtree spans
   (each dividing the next, so the intervals stay laminar).  The default
   ladder is 1, 2, 4, ... as above. *)
let aligned_interval_in ~spans ~lo ~hi =
  let rec go i =
    let s = spans.(i) in
    if lo / s = hi / s then ((lo / s) * s, s) else go (i + 1)
  in
  go 0

(* A group under construction: a run of top-level nesting roots whose
   aligned intervals have been merged.  [start] is the index of its
   first communication in the source-sorted array; members are the
   contiguous slice up to the next group's [start]. *)
type group = {
  mutable lo : int;
  mutable hi : int;
  mutable g_base : int;
  mutable g_align : int;
  start : int;
}

let intersects g ~base ~align =
  g.g_base < base + align && base < g.g_base + g.g_align

let blocks ?(check = true) ?spans set =
  if check then begin
    if not (Comm_set.is_right_oriented set) then
      invalid_arg "Decompose.blocks: set is not right-oriented";
    match Well_nested.check set with
    | Ok () -> ()
    | Error v ->
        invalid_arg
          (Format.asprintf "Decompose.blocks: %a" Well_nested.pp_violation v)
  end;
  let aligned_interval =
    match spans with
    | None -> fun ~lo ~hi -> aligned_interval ~lo ~hi
    | Some spans ->
        if Array.length spans = 0 || spans.(0) <> 1 then
          invalid_arg "Decompose.blocks: spans must start at 1";
        Array.iteri
          (fun i s ->
            if i > 0 && (s <= spans.(i - 1) || s mod spans.(i - 1) <> 0) then
              invalid_arg
                "Decompose.blocks: spans must be increasing and each divide \
                 the next")
          spans;
        fun ~lo ~hi -> aligned_interval_in ~spans ~lo ~hi
  in
  let comms = Comm_set.comms set in
  let n = Comm_set.n set in
  (* Stack of groups, innermost-rightmost on top.  Aligned power-of-two
     intervals form a laminar family, so when a new root's interval
     meets the top group's interval one contains the other and they
     merge; the merged interval can in turn swallow groups deeper in
     the stack (a wide root arriving after several narrow ones), hence
     the cascade in [normalize]. *)
  let groups = ref [] in
  let recompute g =
    let base, align = aligned_interval ~lo:g.lo ~hi:g.hi in
    g.g_base <- base;
    g.g_align <- align
  in
  let rec normalize () =
    match !groups with
    | g1 :: g2 :: rest when intersects g2 ~base:g1.g_base ~align:g1.g_align ->
        g2.hi <- max g2.hi g1.hi;
        recompute g2;
        groups := g2 :: rest;
        normalize ()
    | _ -> ()
  in
  Array.iteri
    (fun i (c : Comm.t) ->
      match !groups with
      | top :: _ when c.src < top.hi ->
          (* Nested inside the current group (well-nestedness puts
             [c.dst] below the group's last root destination). *)
          ()
      | _ ->
          let base, align = aligned_interval ~lo:c.src ~hi:c.dst in
          (match !groups with
          | top :: _ when intersects top ~base ~align ->
              top.hi <- c.dst;
              recompute top
          | _ ->
              groups :=
                { lo = c.src; hi = c.dst; g_base = base; g_align = align;
                  start = i }
                :: !groups);
          normalize ())
    comms;
  let ordered = List.rev !groups in
  let rec build = function
    | [] -> []
    | g :: rest ->
        let stop = match rest with g' :: _ -> g'.start | [] -> Array.length comms in
        (* The slice of a sorted, validated set is itself sorted with
           distinct endpoints — adopt it without re-validating. *)
        let members = Array.sub comms g.start (stop - g.start) in
        { base = g.g_base; align = g.g_align;
          set = Comm_set.unsafe_of_sorted ~n members }
        :: build rest
  in
  build ordered

let localize b =
  (* Translation preserves source order and endpoint-disjointness, and
     every endpoint lands in [0, align) by the block invariant. *)
  let members =
    Array.map
      (fun (c : Comm.t) -> Comm.make ~src:(c.src - b.base) ~dst:(c.dst - b.base))
      (Comm_set.comms b.set)
  in
  Comm_set.unsafe_of_sorted ~n:b.align members
