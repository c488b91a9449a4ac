(* The alignment of a set spanning leaves [lo .. hi] is the smallest
   power of two A with lo/A = hi/A — the side of the smallest aligned
   block containing every endpoint, which is also the leaf span of the
   minimal subtree enclosing the set in any tree of >= A leaves.  The
   block's first leaf (lo/A)*A is the placement base; subtracting it
   from every endpoint yields a translation-invariant signature. *)

type t = { align : int; offsets : (int * int) array; hash : int }
type placed = { canon : t; base : int }

let hash_of ~align offsets =
  let h = ref (Cst_util.Fnv.mix Cst_util.Fnv.basis align) in
  for i = 0 to Array.length offsets - 1 do
    let s, d = offsets.(i) in
    h := Cst_util.Fnv.mix (Cst_util.Fnv.mix !h s) d
  done;
  !h

let place set =
  let comms = Cst_comm.Comm_set.comms set in
  if Array.length comms = 0 then
    { canon = { align = 1; offsets = [||]; hash = hash_of ~align:1 [||] };
      base = 0 }
  else begin
    let lo = ref max_int and hi = ref 0 in
    Array.iter
      (fun c ->
        let l = Cst_comm.Comm.lo c and h = Cst_comm.Comm.hi c in
        if l < !lo then lo := l;
        if h > !hi then hi := h)
      comms;
    let align = ref 1 in
    while !lo / !align <> !hi / !align do
      align := 2 * !align
    done;
    let base = !lo / !align * !align in
    (* [comms] is sorted by source; subtracting a constant preserves
       the order, so the offsets array is canonical as built. *)
    let offsets =
      Array.map
        (fun (c : Cst_comm.Comm.t) -> (c.src - base, c.dst - base))
        comms
    in
    let align = !align in
    { canon = { align; offsets; hash = hash_of ~align offsets }; base }
  end

let equal a b =
  a.hash = b.hash && a.align = b.align && a.offsets = b.offsets

let hash t = t.hash

let hash_with ~shape_fp t =
  (* Binary shapes (fingerprint 0) keep the plain hash, so every
     existing plan-store filename and cache key is unchanged. *)
  if shape_fp = 0 then t.hash
  else Cst_util.Fnv.mix t.hash shape_fp

let align t = t.align
let size t = Array.length t.offsets
let offsets t = Array.copy t.offsets

let of_offsets ~align offsets =
  if align < 1 || align land (align - 1) <> 0 then
    invalid_arg "Canon.of_offsets: align not a power of two";
  let sorted = ref true in
  Array.iteri
    (fun i (s, d) ->
      if s < 0 || s >= align || d < 0 || d >= align || s = d then
        invalid_arg "Canon.of_offsets: offset outside [0, align) or src = dst";
      if i > 0 && fst offsets.(i - 1) > s then sorted := false)
    offsets;
  if not !sorted then
    invalid_arg "Canon.of_offsets: offsets not sorted by source";
  (* Only place-image values are canonical: the empty set pins align to
     1, and a non-empty set must straddle the block midpoint (otherwise
     a half-size block would contain it and [align] is not minimal). *)
  if Array.length offsets = 0 then begin
    if align <> 1 then invalid_arg "Canon.of_offsets: empty set needs align 1"
  end
  else begin
    let lo = ref max_int and hi = ref 0 in
    Array.iter
      (fun (s, d) ->
        lo := min !lo (min s d);
        hi := max !hi (max s d))
      offsets;
    if not (!lo < align / 2 && !hi >= align / 2) then
      invalid_arg "Canon.of_offsets: align not minimal for these offsets"
  end;
  let offsets = Array.copy offsets in
  { align; offsets; hash = hash_of ~align offsets }

let compatible t ~leaves ~base =
  leaves >= t.align
  && leaves land (leaves - 1) = 0
  && base >= 0
  && base mod t.align = 0
  && base + t.align <= leaves

let pp fmt t =
  Format.fprintf fmt "align=%d comms=%d hash=%016x" t.align
    (Array.length t.offsets) t.hash
