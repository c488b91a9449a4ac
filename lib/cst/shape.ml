(* Level-table description of a tree topology.  Depth-indexed arrays:
   depth 0 is the root (one node), depth [levels] the leaves.  The table
   fixes the node count of every depth and the capacity of every uplink
   tier; all of [Topology]'s arithmetic is derived from it.  The
   complete binary tree is the shape whose fanouts are all 2 and whose
   capacities are all 1 — [is_binary] is that structural test, and the
   binary shape's fingerprint is pinned to 0 so every hash that mixes a
   fingerprint is unchanged on the classic topology. *)

type t = {
  sizes : int array;  (* sizes.(d) = nodes at depth d; sizes.(0) = 1 *)
  caps : int array;
      (* caps.(d) = capacity of the link from a depth-d node to its
         parent, d in [1 .. levels]; caps.(0) = 0 (the root has no
         uplink) *)
  binary : bool;
  fingerprint : int;
}

type error =
  | Too_few_leaves of int
  | Root_not_single of int
  | Increasing_level_size of { depth : int; size : int; child_size : int }
  | Fractional_fanout of { depth : int; size : int; child_size : int }
  | Bad_capacity of { depth : int; cap : int }
  | Capacity_arity of { expected : int; got : int }

let pp_error fmt = function
  | Too_few_leaves n ->
      Format.fprintf fmt "shape needs at least 2 leaves, got %d" n
  | Root_not_single n ->
      Format.fprintf fmt "shape root level must hold exactly 1 node, got %d" n
  | Increasing_level_size { depth; size; child_size } ->
      Format.fprintf fmt
        "level sizes must strictly decrease leaf-to-root: depth %d has %d \
         nodes but its child level has %d"
        depth size child_size
  | Fractional_fanout { depth; size; child_size } ->
      Format.fprintf fmt
        "fanout at depth %d is not an integer: %d nodes over %d parents"
        depth child_size size
  | Bad_capacity { depth; cap } ->
      Format.fprintf fmt "link capacity at depth %d must be positive, got %d"
        depth cap
  | Capacity_arity { expected; got } ->
      Format.fprintf fmt "expected %d link capacities (one per tier), got %d"
        expected got

let fingerprint_of ~sizes ~caps ~binary =
  if binary then 0
  else
    let h = Cst_util.Fnv.mix Cst_util.Fnv.basis (Array.length sizes) in
    let h = Array.fold_left Cst_util.Fnv.mix h sizes in
    let h = Array.fold_left Cst_util.Fnv.mix h caps in
    (* 0 is reserved for the binary shape *)
    if h = 0 then 1 else h

(* [sizes] root-to-leaf (sizes.(0) = 1), [caps] per uplink tier with
   caps.(0) ignored.  The single validating constructor; every public
   constructor funnels through it. *)
let make ~sizes ~caps =
  let levels = Array.length sizes - 1 in
  if levels < 1 || sizes.(levels) < 2 then
    Error (Too_few_leaves (if levels < 0 then 0 else sizes.(max 0 levels)))
  else if sizes.(0) <> 1 then Error (Root_not_single sizes.(0))
  else if Array.length caps <> Array.length sizes then
    Error
      (Capacity_arity { expected = levels; got = Array.length caps - 1 })
  else begin
    let err = ref None in
    for d = levels downto 1 do
      if !err = None then begin
        let size = sizes.(d - 1) and child_size = sizes.(d) in
        if size >= child_size then
          err :=
            Some (Increasing_level_size { depth = d - 1; size; child_size })
        else if child_size mod size <> 0 then
          err := Some (Fractional_fanout { depth = d - 1; size; child_size })
        else if caps.(d) < 1 then
          err := Some (Bad_capacity { depth = d; cap = caps.(d) })
      end
    done;
    match !err with
    | Some e -> Error e
    | None ->
        let binary =
          Array.for_all (fun c -> c = 1) (Array.sub caps 1 levels)
          && (let ok = ref true in
              for d = 1 to levels do
                if sizes.(d) <> 2 * sizes.(d - 1) then ok := false
              done;
              !ok)
        in
        let sizes = Array.copy sizes and caps = Array.copy caps in
        caps.(0) <- 0;
        Ok { sizes; caps; binary; fingerprint = fingerprint_of ~sizes ~caps ~binary }
  end

let create ~level_sizes ~capacities =
  (* [level_sizes] leaf-to-root without the implied single root;
     [capacities] one per uplink tier, leaf-to-root. *)
  let k = Array.length level_sizes in
  if k = 0 then Error (Too_few_leaves 0)
  else if Array.length capacities <> k then
    Error (Capacity_arity { expected = k; got = Array.length capacities })
  else begin
    let sizes = Array.make (k + 1) 1 in
    let caps = Array.make (k + 1) 0 in
    for i = 0 to k - 1 do
      sizes.(k - i) <- level_sizes.(i);
      caps.(k - i) <- capacities.(i)
    done;
    make ~sizes ~caps
  end

let fat_tree ~level_sizes ~capacities = create ~level_sizes ~capacities

let binary ~leaves =
  if leaves < 2 || not (Cst_util.Bits.is_power_of_two leaves) then
    invalid_arg "Shape.binary: leaves must be a power of two >= 2";
  let levels = Cst_util.Bits.ilog2 leaves in
  let sizes = Array.init (levels + 1) (fun d -> 1 lsl d) in
  let caps = Array.make (levels + 1) 1 in
  caps.(0) <- 0;
  {
    sizes;
    caps;
    binary = true;
    fingerprint = 0;
  }

let kary ~k ~leaves =
  if k < 2 then invalid_arg "Shape.kary: k must be >= 2";
  if leaves < k then invalid_arg "Shape.kary: leaves must be >= k";
  let levels = ref 0 and n = ref 1 in
  while !n < leaves do
    n := !n * k;
    incr levels
  done;
  if !n <> leaves then
    invalid_arg "Shape.kary: leaves must be a power of k";
  let sizes = Array.make (!levels + 1) 1 in
  for d = 1 to !levels do
    sizes.(d) <- sizes.(d - 1) * k
  done;
  let caps = Array.make (!levels + 1) 1 in
  caps.(0) <- 0;
  match make ~sizes ~caps with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Shape.kary: %a" pp_error e)

let levels t = Array.length t.sizes - 1
let leaves t = t.sizes.(levels t)
let size_at t ~depth = t.sizes.(depth)
let cap_at t ~depth = t.caps.(depth)
let fanout_at t ~depth = t.sizes.(depth + 1) / t.sizes.(depth)
let is_binary t = t.binary
let fingerprint t = t.fingerprint
let sizes t = Array.copy t.sizes
let caps t = Array.copy t.caps
let num_nodes t = Array.fold_left ( + ) 0 t.sizes

let equal a b = a.sizes = b.sizes && a.caps = b.caps

(* The CLI grammar: bin:N | kary:K:N | fat:L0,L1[,...][:c0,c1,...] with
   level sizes leaf-to-root (the root is implied) and one capacity per
   uplink tier (default 1). *)

let to_string t =
  let lv = levels t in
  if t.binary then Printf.sprintf "bin:%d" (leaves t)
  else begin
    let k = fanout_at t ~depth:0 in
    let uniform_kary =
      Array.for_all (fun c -> c <= 1) t.caps
      && (let ok = ref true in
          for d = 0 to lv - 1 do
            if fanout_at t ~depth:d <> k then ok := false
          done;
          !ok)
    in
    if uniform_kary then Printf.sprintf "kary:%d:%d" k (leaves t)
    else
      let join f lo hi =
        String.concat ","
          (List.map f (List.init (hi - lo + 1) (fun i -> lo + i)))
      in
      Printf.sprintf "fat:%s:%s"
        (join (fun d -> string_of_int t.sizes.(lv - d)) 0 (lv - 1))
        (join (fun d -> string_of_int t.caps.(lv - d)) 0 (lv - 1))
  end

let of_string s =
  let int_of what v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "shape: %s %S is not an integer" what v)
  in
  let ints what v =
    List.fold_right
      (fun part acc ->
        match acc with
        | Error _ as e -> e
        | Ok tl -> (
            match int_of what part with
            | Ok i -> Ok (i :: tl)
            | Error e -> Error e))
      (String.split_on_char ',' v)
      (Ok [])
  in
  match String.split_on_char ':' s with
  | [ "bin"; n ] -> (
      match int_of "leaf count" n with
      | Error e -> Error e
      | Ok n -> (
          match binary ~leaves:n with
          | t -> Ok t
          | exception Invalid_argument m -> Error m))
  | [ "kary"; k; n ] -> (
      match (int_of "arity" k, int_of "leaf count" n) with
      | Error e, _ | _, Error e -> Error e
      | Ok k, Ok n -> (
          match kary ~k ~leaves:n with
          | t -> Ok t
          | exception Invalid_argument m -> Error m))
  | ([ "fat"; ls ] | [ "fat"; ls; _ ]) as parts -> (
      let caps_part = match parts with [ _; _; cs ] -> Some cs | _ -> None in
      match ints "level size" ls with
      | Error e -> Error e
      | Ok sizes -> (
          let level_sizes = Array.of_list sizes in
          let caps =
            match caps_part with
            | None -> Ok (Array.make (Array.length level_sizes) 1)
            | Some cs -> Result.map Array.of_list (ints "capacity" cs)
          in
          match caps with
          | Error e -> Error e
          | Ok capacities -> (
              match fat_tree ~level_sizes ~capacities with
              | Ok t -> Ok t
              | Error e ->
                  Error (Format.asprintf "shape %S: %a" s pp_error e))))
  | _ ->
      Error
        (Printf.sprintf
           "shape %S: expected bin:N, kary:K:N or fat:L0,L1[,...][:c0,c1,...]"
           s)

let pp fmt t = Format.pp_print_string fmt (to_string t)
