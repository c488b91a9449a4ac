(* The ledger is a pure derivation of the execution log: [of_log] is
   the only place in the codebase where power units are charged.

   It is sparse.  Under the paper's model a switch is charged only when
   its configuration changes, so a job's ledger holds the switches its
   log touches, ascending by node id, and nothing else: a switch whose
   three counts are zero never appears.  That makes the ledger a
   canonical function of the dense per-switch counts and the tree size,
   so two ledgers of the same counts compare equal with [=]. *)

type t = {
  size : int;  (* length of the dense views: num_nodes + 1 *)
  nodes : int array;  (* touched switches, ascending *)
  connects : int array;  (* parallel to [nodes] *)
  disconnects : int array;
  writes : int array;
  total_connects : int;
  total_disconnects : int;
  total_writes : int;
  max_connects : int;
  max_writes : int;
  max_events : int;
}

(* Per-domain scratch of [of_log], for a tree of [switches] switches:
   switch [v]'s connects, disconnects and writes at [3v], [3v + 1] and
   [3v + 2] of [counts], and bit [v land 31] of [touched.(v lsr 5)] set
   while any of them is non-zero.  Between calls every entry is zero:
   the emission that reads a switch zeroes it.  The scratch is taken out
   of its slot for the pass (a pass that raises drops it, so the next
   call starts from a fresh one) and reused only for a tree of the same
   size, as the engine's workspace is. *)
type scratch = { switches : int; counts : int array; touched : int array }

let last_scratch : scratch option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let take_scratch num_nodes =
  match Domain.DLS.get last_scratch with
  | Some s when s.switches = num_nodes ->
      Domain.DLS.set last_scratch None;
      s
  | _ ->
      {
        switches = num_nodes;
        counts = Array.make (3 * (num_nodes + 1)) 0;
        touched = Array.make ((num_nodes lsr 5) + 1) 0;
      }

let of_log ?from ?upto ~num_nodes log =
  if num_nodes < 0 then invalid_arg "Power_meter.of_log: negative num_nodes";
  let s = take_scratch num_nodes in
  let counts = s.counts and touched = s.touched in
  let k = ref 0 in
  let tc = ref 0 and td = ref 0 and tw = ref 0 in
  Exec_log.iter_config ?from ?upto log (fun kind node count ->
      if node < 1 || node > num_nodes then
        invalid_arg
          (Printf.sprintf "Power_meter.of_log: node %d is not a switch (1..%d)"
             node num_nodes);
      if count > 0 then begin
        let slot =
          match kind with
          | Exec_log.Connects ->
              incr tc;
              3 * node
          | Exec_log.Disconnects ->
              incr td;
              (3 * node) + 1
          | Exec_log.Writes ->
              tw := !tw + count;
              (3 * node) + 2
        in
        counts.(slot) <- counts.(slot) + count;
        let word = node lsr 5 and bit = 1 lsl (node land 31) in
        let b = touched.(word) in
        if b land bit = 0 then begin
          touched.(word) <- b lor bit;
          incr k
        end
      end);
  (* Emit the touched switches in ascending order by scanning the
     bitset — O(num_nodes / 32 + touched), with no sort — zeroing the
     scratch as each switch is read. *)
  let k = !k in
  let nodes = Array.make k 0 in
  let connects = Array.make k 0
  and disconnects = Array.make k 0
  and writes = Array.make k 0 in
  let mc = ref 0 and mw = ref 0 and me = ref 0 in
  let i = ref 0 in
  for word = 0 to Array.length touched - 1 do
    let b = touched.(word) in
    if b <> 0 then begin
      touched.(word) <- 0;
      let b = ref b and v = ref (word lsl 5) in
      while !b <> 0 do
        if !b land 1 = 1 then begin
          let node = !v in
          let c = counts.(3 * node)
          and d = counts.((3 * node) + 1)
          and w = counts.((3 * node) + 2) in
          counts.(3 * node) <- 0;
          counts.((3 * node) + 1) <- 0;
          counts.((3 * node) + 2) <- 0;
          nodes.(!i) <- node;
          connects.(!i) <- c;
          disconnects.(!i) <- d;
          writes.(!i) <- w;
          if c > !mc then mc := c;
          if w > !mw then mw := w;
          if c + d > !me then me := c + d;
          incr i
        end;
        b := !b lsr 1;
        incr v
      done
    end
  done;
  Domain.DLS.set last_scratch (Some s);
  {
    size = num_nodes + 1;
    nodes;
    connects;
    disconnects;
    writes;
    total_connects = !tc;
    total_disconnects = !td;
    total_writes = !tw;
    max_connects = !mc;
    max_writes = !mw;
    max_events = !me;
  }

let zero ~num_nodes =
  {
    size = num_nodes + 1;
    nodes = [||];
    connects = [||];
    disconnects = [||];
    writes = [||];
    total_connects = 0;
    total_disconnects = 0;
    total_writes = 0;
    max_connects = 0;
    max_writes = 0;
    max_events = 0;
  }

(* Builds a ledger from entries already in ascending node order,
   recomputing the maxima. *)
let of_sorted ~size ~nodes ~connects ~disconnects ~writes =
  let sum = Array.fold_left ( + ) 0 and top = Array.fold_left max 0 in
  {
    size;
    nodes;
    connects;
    disconnects;
    writes;
    total_connects = sum connects;
    total_disconnects = sum disconnects;
    total_writes = sum writes;
    max_connects = top connects;
    max_writes = top writes;
    max_events = top (Array.map2 ( + ) connects disconnects);
  }

let add a b =
  (* Merge of two ascending node lists; a switch in both sums its
     counts, so the maxima are recomputed, not maxed.  [walk] runs the
     merge once to count the output and once to fill it. *)
  let na = Array.length a.nodes and nb = Array.length b.nodes in
  let walk emit =
    let i = ref 0 and j = ref 0 and o = ref 0 in
    while !i < na || !j < nb do
      let x = if !i < na then a.nodes.(!i) else max_int
      and y = if !j < nb then b.nodes.(!j) else max_int in
      if x <= y then begin
        emit !o a !i;
        incr i
      end;
      if y <= x then begin
        emit !o b !j;
        incr j
      end;
      incr o
    done;
    !o
  in
  let n = walk (fun _ _ _ -> ()) in
  let nodes = Array.make n 0 in
  let connects = Array.make n 0
  and disconnects = Array.make n 0
  and writes = Array.make n 0 in
  ignore
    (walk (fun o (t : t) x ->
         nodes.(o) <- t.nodes.(x);
         connects.(o) <- connects.(o) + t.connects.(x);
         disconnects.(o) <- disconnects.(o) + t.disconnects.(x);
         writes.(o) <- writes.(o) + t.writes.(x)));
  of_sorted ~size:(max a.size b.size) ~nodes ~connects ~disconnects ~writes

let remap f t =
  let k = Array.length t.nodes in
  let moved = Array.map f t.nodes in
  let order = Array.init k Fun.id in
  Array.sort (fun x y -> Int.compare moved.(x) moved.(y)) order;
  let pick a = Array.map (fun x -> a.(x)) order in
  {
    t with
    nodes = pick moved;
    connects = pick t.connects;
    disconnects = pick t.disconnects;
    writes = pick t.writes;
  }

(* The index of [node]'s entry, by binary search over the ascending
   nodes; -1 when the ledger does not hold it. *)
let find t node =
  let lo = ref 0 and hi = ref (Array.length t.nodes) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.nodes.(mid) < node then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length t.nodes && t.nodes.(!lo) = node then !lo else -1

let count a t ~node =
  let i = find t node in
  if i < 0 then 0 else a.(i)

let connects t ~node = count t.connects t ~node
let disconnects t ~node = count t.disconnects t ~node
let writes t ~node = count t.writes t ~node
let total_connects t = t.total_connects
let total_disconnects t = t.total_disconnects
let total_writes t = t.total_writes
let max_connects_per_switch t = t.max_connects
let max_writes_per_switch t = t.max_writes
let max_events_per_switch t = t.max_events
let touched t = Array.length t.nodes

let dense a t =
  let d = Array.make t.size 0 in
  Array.iteri (fun i node -> d.(node) <- a.(i)) t.nodes;
  d

let per_switch_connects t = dense t.connects t
let per_switch_writes t = dense t.writes t
let per_switch_disconnects t = dense t.disconnects t

let pp fmt t =
  Format.fprintf fmt
    "power: %d connects (%d disconnects, %d writes), max per switch %d \
     connects / %d writes"
    (total_connects t) (total_disconnects t) (total_writes t)
    (max_connects_per_switch t) (max_writes_per_switch t)
