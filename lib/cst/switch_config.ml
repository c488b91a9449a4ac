(* A configuration is its 6-bit driver code: bits [2o, 2o+1] hold 0 when
   output [o] (by [Side.index]) is undriven, else 1 + the driver's index.
   The code is canonical, so equality is integer equality, and lazy
   merge is a table lookup built once from its definition. *)
type t = int

let empty = 0

let of_code c =
  if c < 0 || c > 63 then
    invalid_arg (Printf.sprintf "Switch_config.of_code: %d" c);
  c

(* Driver field of output index [o]: 0 or 1 + driver index. *)
let[@inline] field t o = (t lsr (2 * o)) land 3
let side_opts = [| None; Some Side.L; Some Side.R; Some Side.P |]
let driver t output = side_opts.(field t (Side.index output))

(* 0 when input index [i] drives nothing, else 1 + the index of the
   first output (in side order) it drives. *)
let output_code t i =
  let d = 1 + i in
  if field t 0 = d then 1
  else if field t 1 = d then 2
  else if field t 2 = d then 3
  else 0

let output_of t input = side_opts.(output_code t (Side.index input))

let set t ~output ~input =
  if Side.equal output input then
    invalid_arg "Switch_config.set: same-side connection";
  let o = Side.index output in
  if field t o <> 0 then
    invalid_arg
      ("Switch_config.set: output " ^ Side.to_string output
     ^ " already driven");
  if output_code t (Side.index input) <> 0 then
    invalid_arg
      ("Switch_config.set: input " ^ Side.to_string input ^ " already used");
  t lor ((1 + Side.index input) lsl (2 * o))

let with_driver t ~output ~input =
  let o = Side.index output in
  let d = match input with None -> 0 | Some i -> 1 + Side.index i in
  t land lnot (3 lsl (2 * o)) lor (d lsl (2 * o))

let connections t =
  List.filter_map
    (fun o -> match driver t o with Some i -> Some (o, i) | None -> None)
    Side.all

let connection_count t =
  (if field t 0 <> 0 then 1 else 0)
  + (if field t 1 <> 0 then 1 else 0)
  + if field t 2 <> 0 then 1 else 0

let is_empty t = t = 0
let equal = Int.equal

(* The PADR carry-over, as defined: start from [want] and re-add, in
   side order and through [set]'s checks, every [prev] connection whose
   output [want] leaves undriven and whose input [want] does not use.
   Legal codes never raise; an illegal [prev] (only [with_driver] makes
   one) raises [set]'s [Invalid_argument]. *)
let merge_checked ~prev ~want =
  let acc = ref want in
  for o = 0 to 2 do
    let p = field prev o in
    if field want o = 0 && p <> 0 && output_code want (p - 1) = 0 then
      acc :=
        set !acc ~output:(Side.of_index o) ~input:(Side.of_index (p - 1))
  done;
  !acc

(* [merged.(prev lsl 6 lor want)]; -1 where the definition raises. *)
let merged =
  Array.init 4096 (fun k ->
      try merge_checked ~prev:(k lsr 6) ~want:(k land 63)
      with Invalid_argument _ -> -1)

let merge_lazy ~prev ~want =
  let r = Array.unsafe_get merged ((prev lsl 6) lor want) in
  if r >= 0 then r else merge_checked ~prev ~want

type delta = { connects : int; disconnects : int }

(* The 16 possible deltas, shared so that [diff] allocates nothing. *)
let deltas =
  Array.init 16 (fun k -> { connects = k lsr 2; disconnects = k land 3 })

(* Per output: a new or changed driver is one connect, a dropped one a
   disconnect. *)
let diff ~old_config ~new_config =
  let connects = ref 0 and disconnects = ref 0 in
  for o = 0 to 2 do
    let x = field old_config o and y = field new_config o in
    if x <> y then if y <> 0 then incr connects else incr disconnects
  done;
  Array.unsafe_get deltas ((!connects lsl 2) lor !disconnects)

let pp fmt t =
  let cs = connections t in
  if cs = [] then Format.pp_print_string fmt "{}"
  else begin
    Format.pp_print_string fmt "{";
    List.iteri
      (fun k (o, i) ->
        if k > 0 then Format.pp_print_string fmt ", ";
        Format.fprintf fmt "%a->%a" Side.pp i Side.pp o)
      cs;
    Format.pp_print_string fmt "}"
  end
