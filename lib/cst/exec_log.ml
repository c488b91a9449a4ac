(* Canonical execution log: every scheduler run is a flat sequence of
   typed events, appended by [Net] (config transitions) and by the
   producers themselves (rounds, deliveries, run boundaries).  One event
   is one 63-bit word in a growable int arena:

     bits 0-2   tag
     bits 3-22  field a   (node / src / levels)
     bits 23-42 field b   (port index / dst / write count)
     bits 43-62 field c   (port index)

   [Round_begin] and [Run_end] use a 40-bit payload spanning a and b so
   round counts are not capped at 2^20. *)

type event =
  | Phase_done of { levels : int }
  | Round_begin of { index : int }
  | Connect of { node : int; out_port : Side.t; in_port : Side.t }
  | Disconnect of { node : int; out_port : Side.t; in_port : Side.t }
  | Write_config of { node : int; count : int }
  | Deliver of { src : int; dst : int }
  | Run_end of { rounds : int }

let tag_phase_done = 0
let tag_round_begin = 1
let tag_connect = 2
let tag_disconnect = 3
let tag_write_config = 4
let tag_deliver = 5
let tag_run_end = 6
let field_mask = (1 lsl 20) - 1
let wide_mask = (1 lsl 40) - 1

type t = { mutable buf : int array; mutable len : int }

let create ?(capacity = 256) () =
  { buf = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len
let bytes_used t = 8 * t.len
let clear t = t.len <- 0

let grow t =
  let buf = Array.make (2 * Array.length t.buf) 0 in
  Array.blit t.buf 0 buf 0 t.len;
  t.buf <- buf

let reserve t extra =
  let want = t.len + extra in
  if want > Array.length t.buf then begin
    let cap = ref (Array.length t.buf) in
    while !cap < want do
      cap := 2 * !cap
    done;
    let buf = Array.make !cap 0 in
    Array.blit t.buf 0 buf 0 t.len;
    t.buf <- buf
  end

let[@inline] push t w =
  if t.len = Array.length t.buf then grow t;
  t.buf.(t.len) <- w;
  t.len <- t.len + 1

let check_field what v =
  if v < 0 || v > field_mask then
    invalid_arg (Printf.sprintf "Exec_log: %s %d out of range" what v)

let check_wide what v =
  if v < 0 || v > wide_mask then
    invalid_arg (Printf.sprintf "Exec_log: %s %d out of range" what v)

let[@inline] pack3 tag a b c = tag lor (a lsl 3) lor (b lsl 23) lor (c lsl 43)
let[@inline] pack_wide tag v = tag lor (v lsl 3)

let phase_done t ~levels =
  check_field "levels" levels;
  push t (pack3 tag_phase_done levels 0 0)

let round_begin t ~index =
  check_wide "round index" index;
  push t (pack_wide tag_round_begin index)

let connect t ~node ~out_port ~in_port =
  check_field "node" node;
  push t (pack3 tag_connect node (Side.index out_port) (Side.index in_port))

let disconnect t ~node ~out_port ~in_port =
  check_field "node" node;
  push t (pack3 tag_disconnect node (Side.index out_port) (Side.index in_port))

let write_config t ~node ~count =
  check_field "node" node;
  check_field "write count" count;
  push t (pack3 tag_write_config node count 0)

let deliver t ~src ~dst =
  check_field "src" src;
  check_field "dst" dst;
  push t (pack3 tag_deliver src dst 0)

let run_end t ~rounds =
  check_wide "rounds" rounds;
  push t (pack_wide tag_run_end rounds)

let append t = function
  | Phase_done { levels } -> phase_done t ~levels
  | Round_begin { index } -> round_begin t ~index
  | Connect { node; out_port; in_port } -> connect t ~node ~out_port ~in_port
  | Disconnect { node; out_port; in_port } ->
      disconnect t ~node ~out_port ~in_port
  | Write_config { node; count } -> write_config t ~node ~count
  | Deliver { src; dst } -> deliver t ~src ~dst
  | Run_end { rounds } -> run_end t ~rounds

let decode w =
  let a = (w lsr 3) land field_mask in
  let b = (w lsr 23) land field_mask in
  let c = (w lsr 43) land field_mask in
  match w land 7 with
  | 0 -> Phase_done { levels = a }
  | 1 -> Round_begin { index = (w lsr 3) land wide_mask }
  | 2 ->
      Connect
        { node = a; out_port = Side.of_index b; in_port = Side.of_index c }
  | 3 ->
      Disconnect
        { node = a; out_port = Side.of_index b; in_port = Side.of_index c }
  | 4 -> Write_config { node = a; count = b }
  | 5 -> Deliver { src = a; dst = b }
  | 6 -> Run_end { rounds = (w lsr 3) land wide_mask }
  | _ -> invalid_arg "Exec_log.decode: corrupt word"

let clamp ?(from = 0) ?upto t =
  let upto = match upto with Some u -> min u t.len | None -> t.len in
  (max 0 from, upto)

let event t i =
  if i < 0 || i >= t.len then invalid_arg "Exec_log.event: index out of range";
  decode t.buf.(i)

let final_rounds t =
  if t.len = 0 || t.buf.(t.len - 1) land 7 <> tag_run_end then
    invalid_arg "Exec_log.final_rounds: the log does not end with run-end";
  (t.buf.(t.len - 1) lsr 3) land wide_mask

let iter ?from ?upto t f =
  let from, upto = clamp ?from ?upto t in
  for i = from to upto - 1 do
    f (decode t.buf.(i))
  done

let fold ?from ?upto t ~init ~f =
  let from, upto = clamp ?from ?upto t in
  let acc = ref init in
  for i = from to upto - 1 do
    acc := f !acc (decode t.buf.(i))
  done;
  !acc

let sub t ~from =
  let from, upto = clamp ~from t in
  let len = upto - from in
  let buf = Array.make (max 1 len) 0 in
  Array.blit t.buf from buf 0 len;
  { buf; len }

type config_kind = Connects | Disconnects | Writes

let iter_config ?from ?upto t f =
  let from, upto = clamp ?from ?upto t in
  for i = from to upto - 1 do
    let w = t.buf.(i) in
    let tag = w land 7 in
    if tag = tag_connect then f Connects ((w lsr 3) land field_mask) 1
    else if tag = tag_disconnect then
      f Disconnects ((w lsr 3) land field_mask) 1
    else if tag = tag_write_config then
      f Writes ((w lsr 3) land field_mask) ((w lsr 23) land field_mask)
  done

(* Structural digest: FNV-1a-style multiply-xor over the packed words,
   truncated to OCaml's 63-bit native int.  Config events (connect /
   disconnect / write-config) between two non-config events are hashed
   in sorted order: a round's configuration delta is a *set* of switch
   transitions, and producers are free to discover switches in any order
   (the spec scheduler scans nodes in ascending id, the sparse engine in
   DFS preorder).  Round structure and delivery order hash as emitted.

   A run of config words is copied into a per-domain int buffer and
   sorted there, so a digest allocates nothing once the buffer fits the
   longest run.  The buffer is taken out of its slot during the digest
   (an exception leaves none behind) and put back afterwards if it holds
   at most 1024 words or at most twice the longest run of this digest. *)
let[@inline] is_config w =
  let tag = w land 7 in
  tag = tag_connect || tag = tag_disconnect || tag = tag_write_config

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Heapsort of [a.(lo) .. a.(hi - 1)]: the fallback that keeps
   [sort_range] O(k log k) on any input. *)
let heap_sort (a : int array) lo hi =
  let n = hi - lo in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
      if a.(lo + c) > a.(lo + i) then begin
        let t = a.(lo + c) in
        a.(lo + c) <- a.(lo + i);
        a.(lo + i) <- t;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for len = n - 1 downto 1 do
    let t = a.(lo) in
    a.(lo) <- a.(lo + len);
    a.(lo + len) <- t;
    sift 0 len
  done

(* Introsort of [a.(lo) .. a.(hi - 1)] in place: median-of-three
   quicksort, insertion sort below 16 elements, heapsort once the
   recursion is [depth] levels deep. *)
let rec sort_range (a : int array) lo hi depth =
  if hi - lo <= 16 then insertion_sort a lo hi
  else if depth = 0 then heap_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort_range a lo (!j + 1) (depth - 1);
    sort_range a !i hi (depth - 1)
  end

let sort_buffer : int array option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let digest ?from ?upto t =
  let from, upto = clamp ?from ?upto t in
  let buf =
    ref
      (match Domain.DLS.get sort_buffer with
      | Some b ->
          Domain.DLS.set sort_buffer None;
          b
      | None -> [||])
  in
  let longest = ref 0 in
  (* Words hash as stored, except that a run of two or more config
     words hashes sorted; [flat] is the first word not hashed yet. *)
  let h = ref Cst_util.Fnv.basis in
  let flat = ref from in
  let i = ref from in
  while !i < upto do
    if not (is_config t.buf.(!i)) then incr i
    else begin
      let j = ref (!i + 1) in
      while !j < upto && is_config t.buf.(!j) do
        incr j
      done;
      let k = !j - !i in
      if k > !longest then longest := k;
      if k > 1 then begin
        if k > Array.length !buf then
          buf := Array.make (max k (max 64 (2 * Array.length !buf))) 0;
        let b = !buf in
        Array.blit t.buf !i b 0 k;
        sort_range b 0 k (2 * Cst_util.Bits.ilog2 k);
        h := Cst_util.Fnv.mix_range !h t.buf !flat (!i - !flat);
        h := Cst_util.Fnv.mix_range !h b 0 k;
        flat := !j
      end;
      i := !j
    end
  done;
  h := Cst_util.Fnv.mix_range !h t.buf !flat (upto - !flat);
  let cap = Array.length !buf in
  if cap > 0 && (cap <= 1024 || cap <= 2 * !longest) then
    Domain.DLS.set sort_buffer (Some !buf);
  Printf.sprintf "%016x" !h

(* Round-structured replay.  Configuration state is replayed from the
   log's beginning even when [from] is positive, so that runs on a
   shared long-lived net (whose carried-over connections predate [from])
   still snapshot the exact live state. *)

type round_view = {
  index : int;
  live : (int * Switch_config.t) list;
  deliveries : (int * int) list;
}

let fold_rounds ?(from = 0) ?upto ?(snapshots = true) t ~init ~f =
  let from, upto = clamp ~from ?upto t in
  (* Per-node replay state, one byte each: bits 0-5 the switch's
     configuration (a [Switch_config.t] is its 6-bit code), bit 7 "on
     the live list".  Per event the work is a byte load and store, and
     snapshots allocate nothing but their list cells.  [live_list] is
     compacted lazily at each snapshot, so a round's snapshot costs
     O(live + died-this-round), not O(every switch ever driven) — the
     per-round baselines clear the whole tree between rounds, which
     would otherwise make every replayed round scan the full history.
     Without snapshots no view reads the driver state, so config events
     are skipped outright. *)
  let state = ref (Bytes.make (if snapshots then 1024 else 0) '\000') in
  let live_list = ref [] in
  let get node =
    if node < Bytes.length !state then Char.code (Bytes.get !state node) else 0
  in
  let put node b =
    if node >= Bytes.length !state then begin
      let grown =
        Bytes.make (max (2 * Bytes.length !state) (node + 1)) '\000'
      in
      Bytes.blit !state 0 grown 0 (Bytes.length !state);
      state := grown
    end;
    Bytes.set !state node (Char.chr b)
  in
  let set_driver node out input =
    let b = get node in
    let cfg =
      Switch_config.with_driver
        (Switch_config.of_code (b land 63))
        ~output:(Side.of_index out) ~input
    in
    let nb = (cfg :> int) lor (b land 128) in
    let nb =
      if nb land 63 <> 0 && nb land 128 = 0 then begin
        live_list := node :: !live_list;
        nb lor 128
      end
      else nb
    in
    put node nb
  in
  let replay_config w =
    let tag = w land 7 in
    if tag = tag_connect then
      set_driver
        ((w lsr 3) land field_mask)
        ((w lsr 23) land field_mask)
        (Some (Side.of_index ((w lsr 43) land field_mask)))
    else if tag = tag_disconnect then
      set_driver ((w lsr 3) land field_mask) ((w lsr 23) land field_mask) None
  in
  if snapshots then
    for i = 0 to from - 1 do
      replay_config t.buf.(i)
    done;
  let acc = ref init in
  let cur_index = ref (-1) in
  let dels = ref [] in
  let flush () =
    if !cur_index >= 0 then begin
      let snapshot =
        if not snapshots then []
        else begin
          let kept =
            List.filter
              (fun node ->
                if get node land 63 = 0 then begin
                  put node (get node land lnot 128);
                  false
                end
                else true)
              !live_list
          in
          live_list := kept;
          List.sort compare kept
          |> List.map (fun node ->
                 (node, Switch_config.of_code (get node land 63)))
        end
      in
      acc :=
        f !acc
          { index = !cur_index; live = snapshot; deliveries = List.rev !dels };
      dels := [];
      cur_index := -1
    end
  in
  for i = from to upto - 1 do
    let w = t.buf.(i) in
    match w land 7 with
    | 0 (* phase_done *) | 6 (* run_end *) -> flush ()
    | 1 (* round_begin *) ->
        flush ();
        cur_index := (w lsr 3) land wide_mask
    | 2 (* connect *) | 3 (* disconnect *) ->
        if snapshots then replay_config w
    | 4 (* write_config *) -> ()
    | 5 (* deliver *) ->
        dels := (((w lsr 3) land field_mask), (w lsr 23) land field_mask)
                :: !dels
    | _ -> invalid_arg "Exec_log.fold_rounds: corrupt word"
  done;
  flush ();
  !acc

(* Relocating a compiled plan.  For a run whose set lives entirely in
   the aligned leaf block [base, base + align) of a [leaves]-leaf tree,
   every Connect / Disconnect / Write_config targets a node of the
   subtree rooted at the block's node, and every Deliver joins two PEs
   of the block: Phase 1 reports zero endpoint counts above the block
   root (so no ancestor is ever matched or configured), and a round's
   paths stay below the LCA of the round's endpoints, which the block
   root dominates.  Relocating such a run to a congruent block of a
   (possibly different) tree is therefore a pure relabeling:

     - the block root moves from r_s = src_leaves/align + src_base/align
       to r_t = dst_leaves/align + dst_base/align (heap numbering: the
       node whose leaf interval is the block);
     - a descendant v at depth j below r_s maps to v + (r_t - r_s)*2^j
       (its j low-order child-direction bits are preserved);
     - PEs shift by dst_base - src_base;
     - [Phase_done] carries the target tree's level count; round
       boundaries and [Run_end] are position-free.

   The relabeling is performed on the packed words directly — one pass,
   O(events), no event values materialized. *)

let rebase ?(in_place = false) t ~src_leaves ~src_base ~dst_leaves ~dst_base
    ~align =
  let check_pow2 what v =
    if v < 1 || v land (v - 1) <> 0 then
      invalid_arg (Printf.sprintf "Exec_log.rebase: %s %d not a power of two" what v)
  in
  check_pow2 "align" align;
  check_pow2 "src_leaves" src_leaves;
  check_pow2 "dst_leaves" dst_leaves;
  let check_base what base leaves =
    if base < 0 || base mod align <> 0 || base + align > leaves then
      invalid_arg
        (Printf.sprintf
           "Exec_log.rebase: %s %d not an aligned block of %d leaves" what
           base leaves)
  in
  check_base "src_base" src_base src_leaves;
  check_base "dst_base" dst_base dst_leaves;
  let ilog2 n =
    let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
    go n 0
  in
  let src_root = (src_leaves / align) + (src_base / align) in
  let dst_root = (dst_leaves / align) + (dst_base / align) in
  let src_root_depth = ilog2 src_root in
  let dst_levels = ilog2 dst_leaves in
  let map_node node =
    let j = ilog2 node - src_root_depth in
    if j < 0 || node lsr j <> src_root then
      invalid_arg
        (Printf.sprintf
           "Exec_log.rebase: node %d outside the block subtree of %d" node
           src_root);
    let node' = node + ((dst_root - src_root) lsl j) in
    check_field "node" node';
    node'
  in
  let pe_delta = dst_base - src_base in
  let map_pe pe =
    if pe < src_base || pe >= src_base + align then
      invalid_arg
        (Printf.sprintf "Exec_log.rebase: PE %d outside block [%d, %d)" pe
           src_base (src_base + align));
    pe + pe_delta
  in
  let out = if in_place then t else create ~capacity:(max 1 t.len) () in
  for i = 0 to t.len - 1 do
    let w = t.buf.(i) in
    out.buf.(i) <-
      (match w land 7 with
      | 0 (* phase_done *) -> pack3 tag_phase_done dst_levels 0 0
      | 1 (* round_begin *) | 6 (* run_end *) -> w
      | 2 (* connect *) | 3 (* disconnect *) | 4 (* write_config *) ->
          let node' = map_node ((w lsr 3) land field_mask) in
          w land lnot (field_mask lsl 3) lor (node' lsl 3)
      | 5 (* deliver *) ->
          pack3 tag_deliver
            (map_pe ((w lsr 3) land field_mask))
            (map_pe ((w lsr 23) land field_mask))
            0
      | _ -> invalid_arg "Exec_log.rebase: corrupt word")
  done;
  out.len <- t.len;
  out

(* Merging per-block runs.  Each input is segmented once — for every
   round, the word ranges holding its config events and its deliveries
   — then the output is assembled by blitting packed words: one
   phase-done, and per output round the inputs' config ranges followed
   by the inputs' delivery ranges, in input order.  No event value is
   ever materialized. *)

type run_segments = {
  seg_src : t;
  seg_rounds : (int * int * int) array;  (* cfg_lo, cfg_hi, del_hi *)
}

let segment_run ~levels t =
  let fail msg = invalid_arg ("Exec_log.merge: " ^ msg) in
  if t.len = 0 then fail "empty log";
  if t.buf.(0) land 7 <> tag_phase_done then
    fail "log does not start with phase-done";
  if (t.buf.(0) lsr 3) land field_mask <> levels then
    fail
      (Printf.sprintf "phase-done levels %d, expected %d (rebase first?)"
         ((t.buf.(0) lsr 3) land field_mask)
         levels);
  let i = ref 1 in
  let segs = ref [] in
  let count = ref 0 in
  while !i < t.len && t.buf.(!i) land 7 = tag_round_begin do
    incr count;
    if (t.buf.(!i) lsr 3) land wide_mask <> !count then
      fail "round indices not consecutive from 1";
    incr i;
    let cfg_lo = !i in
    while
      !i < t.len
      && (let tag = t.buf.(!i) land 7 in
          tag = tag_connect || tag = tag_disconnect || tag = tag_write_config)
    do
      incr i
    done;
    let cfg_hi = !i in
    while !i < t.len && t.buf.(!i) land 7 = tag_deliver do
      incr i
    done;
    segs := (cfg_lo, cfg_hi, !i) :: !segs
  done;
  if !i >= t.len || t.buf.(!i) land 7 <> tag_run_end then
    fail "not a single-run log (missing run-end)";
  if (t.buf.(!i) lsr 3) land wide_mask <> !count then
    fail "run-end round count disagrees with the rounds present";
  if !i + 1 <> t.len then fail "events after run-end";
  { seg_src = t; seg_rounds = Array.of_list (List.rev !segs) }

let merge ?into ~levels logs =
  check_field "levels" levels;
  let runs = List.map (segment_run ~levels) logs in
  (* The output length is known up front (every input word lands exactly
     once, plus the shared phase-done / round / run-end skeleton): size
     the arena once so the blits below never trigger a growth copy. *)
  let total = List.fold_left (fun acc r -> acc + r.seg_src.len) 2 runs in
  let out =
    match into with
    | Some t ->
        reserve t total;
        t
    | None -> create ~capacity:total ()
  in
  phase_done out ~levels;
  let max_rounds =
    List.fold_left (fun acc r -> max acc (Array.length r.seg_rounds)) 0 runs
  in
  let blit r lo hi =
    let k = hi - lo in
    if k > 0 then begin
      reserve out k;
      Array.blit r.seg_src.buf lo out.buf out.len k;
      out.len <- out.len + k
    end
  in
  for round = 1 to max_rounds do
    round_begin out ~index:round;
    List.iter
      (fun r ->
        if round <= Array.length r.seg_rounds then begin
          let cfg_lo, cfg_hi, _ = r.seg_rounds.(round - 1) in
          blit r cfg_lo cfg_hi
        end)
      runs;
    List.iter
      (fun r ->
        if round <= Array.length r.seg_rounds then begin
          let _, cfg_hi, del_hi = r.seg_rounds.(round - 1) in
          blit r cfg_hi del_hi
        end)
      runs
  done;
  run_end out ~rounds:max_rounds;
  out

let driver_alternations ?from ?upto t ~node =
  let from, upto = clamp ?from ?upto t in
  (* Lemma 6/7 count: alternations of an output port's *driver
     sequence* — a [Connect] whose driver differs from the port's last
     established driver.  The first connect establishes the sequence
     (no alternation); a [Disconnect] releases the port but does not
     alternate it, and reconnecting the same driver afterwards is not
     an alternation either. *)
  let counts = [| 0; 0; 0 |] in
  let last = [| -1; -1; -1 |] in
  for i = from to upto - 1 do
    let w = t.buf.(i) in
    if w land 7 = tag_connect && (w lsr 3) land field_mask = node then begin
      let o = (w lsr 23) land field_mask in
      let d = (w lsr 43) land field_mask in
      if last.(o) >= 0 && last.(o) <> d then counts.(o) <- counts.(o) + 1;
      last.(o) <- d
    end
  done;
  max counts.(0) (max counts.(1) counts.(2))

let pp_event fmt = function
  | Phase_done { levels } ->
      Format.fprintf fmt "phase-done levels=%d" levels
  | Round_begin { index } -> Format.fprintf fmt "round-begin %d" index
  | Connect { node; out_port; in_port } ->
      Format.fprintf fmt "connect node=%d %a->%a" node Side.pp in_port Side.pp
        out_port
  | Disconnect { node; out_port; in_port } ->
      Format.fprintf fmt "disconnect node=%d %a-/->%a" node Side.pp in_port
        Side.pp out_port
  | Write_config { node; count } ->
      Format.fprintf fmt "write-config node=%d count=%d" node count
  | Deliver { src; dst } -> Format.fprintf fmt "deliver %d->%d" src dst
  | Run_end { rounds } -> Format.fprintf fmt "run-end rounds=%d" rounds

let pp fmt t =
  Format.pp_open_vbox fmt 0;
  for i = 0 to t.len - 1 do
    Format.fprintf fmt "%6d %a@," i pp_event (decode t.buf.(i))
  done;
  Format.pp_close_box fmt ()

(* Binary codec: 40-byte little-endian header + the raw word arena.
   The arena digest is FNV-1a over the packed words as stored (not the
   structural [digest] above, which canonicalizes config order) — it is
   an integrity check on the bytes: encode folds it over the words it
   writes, and decode over the words it read before the log is
   trusted.  Fields go through the stdlib's little-endian accessors:
   a 32-bit field reads unsigned, a 64-bit one modulo 2^63.  Words are
   non-negative OCaml ints, so byte 7 of an honest word never has
   either of its top two bits set; the 64-bit read
   silently drops bit 63 (ints wrap mod 2^63) and a bit-62 flip slides
   through the digest (an odd prime times 2^62 is 2^62 mod 2^63, and
   the final [land max_int] clears that bit again), which is why the
   word scan checks the stored top byte explicitly rather than the
   reassembled value. *)
module Codec = struct
  type error =
    | Truncated of { expected : int; got : int }
    | Bad_magic
    | Unsupported_version of { found : int; expected : int }
    | Digest_mismatch
    | Bad_word of { index : int }

  let pp_error fmt = function
    | Truncated { expected; got } ->
        Format.fprintf fmt "truncated: need %d bytes, have %d" expected got
    | Bad_magic -> Format.fprintf fmt "bad magic (not a CST log)"
    | Unsupported_version { found; expected } ->
        Format.fprintf fmt "unsupported version %d (expected %d)" found
          expected
    | Digest_mismatch -> Format.fprintf fmt "arena digest mismatch"
    | Bad_word { index } ->
        Format.fprintf fmt "invalid event word at index %d" index

  let version = 2
  let header_bytes = 40
  let header_bytes_v2 = 48
  let magic = "CSTELOG1"

  (* Version selection is driven by the shape fingerprint: binary-shape
     logs (fingerprint 0) keep the historical 40-byte v1 layout — every
     file ever written for the classic topology stays byte-identical —
     and only non-binary logs pay the 48-byte v2 header that records
     their fingerprint at offset 40. *)
  let header_bytes_for ~shape_fp =
    if shape_fp = 0 then header_bytes else header_bytes_v2

  let encoded_bytes ?(shape_fp = 0) t =
    header_bytes_for ~shape_fp + (8 * t.len)

  let u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xffff_ffff
  let u63 b pos = Int64.to_int (Bytes.get_int64_le b pos)
  let set_u64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)

  let encode_into ?(canon_hash = 0) ?(shape_fp = 0) t b ~pos =
    let need = encoded_bytes ~shape_fp t in
    if pos < 0 || pos + need > Bytes.length b then
      invalid_arg "Exec_log.Codec.encode_into: buffer too small";
    Bytes.blit_string magic 0 b pos 8;
    Bytes.set_int32_le b (pos + 8)
      (Int32.of_int (if shape_fp = 0 then 1 else version));
    Bytes.set_int32_le b (pos + 12) 0l;
    set_u64 b (pos + 16) canon_hash;
    set_u64 b (pos + 24) t.len;
    if shape_fp <> 0 then set_u64 b (pos + 40) shape_fp;
    let base = pos + header_bytes_for ~shape_fp in
    for i = 0 to t.len - 1 do
      set_u64 b (base + (8 * i)) t.buf.(i)
    done;
    set_u64 b (pos + 32)
      (Cst_util.Fnv.mix_range Cst_util.Fnv.basis t.buf 0 t.len);
    pos + need

  let encode ?canon_hash ?shape_fp t =
    let b = Bytes.create (encoded_bytes ?shape_fp t) in
    ignore (encode_into ?canon_hash ?shape_fp t b ~pos:0);
    b

  (* Checks magic + version and returns the header size of the version
     found (v1: 40, v2: 48). *)
  let check_header b pos =
    if pos < 0 || Bytes.length b - pos < header_bytes then
      Error
        (Truncated
           { expected = header_bytes; got = max 0 (Bytes.length b - pos) })
    else if not (String.equal (Bytes.sub_string b pos 8) magic) then
      Error Bad_magic
    else if u32 b (pos + 12) <> 0 then
      (* The reserved pad word is always written as zero; anything else
         is a corrupted preamble (it is the one header slot no digest
         covers). *)
      Error Bad_magic
    else
      let v = u32 b (pos + 8) in
      if v <> 1 && v <> version then
        Error (Unsupported_version { found = v; expected = version })
      else
        let hdr = if v = 1 then header_bytes else header_bytes_v2 in
        if Bytes.length b - pos < hdr then
          Error (Truncated { expected = hdr; got = Bytes.length b - pos })
        else Ok hdr

  let decode ?(pos = 0) b =
    match check_header b pos with
    | Error e -> Error e
    | Ok hdr ->
        let count = u63 b (pos + 24) in
        let avail = Bytes.length b - pos - hdr in
        if count < 0 || count > avail / 8 then
          Error
            (Truncated
               {
                 expected =
                   (if count < 0 || count > (max_int - hdr) / 8 then max_int
                    else hdr + (8 * count));
                 got = hdr + avail;
               })
        else begin
          let stored = u63 b (pos + 32) in
          let t = create ~capacity:(max 1 count) () in
          let base = pos + hdr in
          let bad = ref (-1) in
          for i = 0 to count - 1 do
            let off = base + (8 * i) in
            let w = u63 b off in
            if
              !bad < 0
              && (w land 7 > 6
                 || Char.code (Bytes.unsafe_get b (off + 7)) land 0xc0 <> 0)
            then bad := i;
            t.buf.(i) <- w
          done;
          if Cst_util.Fnv.mix_range Cst_util.Fnv.basis t.buf 0 count <> stored
          then Error Digest_mismatch
          else if !bad >= 0 then Error (Bad_word { index = !bad })
          else begin
            t.len <- count;
            Ok (t, base + (8 * count))
          end
        end

  let canon_hash ?(pos = 0) b =
    match check_header b pos with
    | Error e -> Error e
    | Ok _hdr -> Ok (u63 b (pos + 16))

  let shape_fp ?(pos = 0) b =
    match check_header b pos with
    | Error e -> Error e
    | Ok hdr -> Ok (if hdr = header_bytes then 0 else u63 b (pos + 40))
end
