type role = Source of int | Dest of int | Idle

(* [roles] is filled at construction by the validating constructors and
   on first read for sets adopted through [unsafe_of_sorted], whose
   callers (block slices of a large set) mostly never ask for it. *)
type t = { n : int; comms : Comm.t array; roles : role array option Atomic.t }

type error =
  | Out_of_range of Comm.t
  | Shared_endpoint of int

let pp_error fmt = function
  | Out_of_range c ->
      Format.fprintf fmt "communication %a out of range" Comm.pp c
  | Shared_endpoint p ->
      Format.fprintf fmt "PE %d is an endpoint of two communications" p

let build ~n comms =
  let comms = Array.of_list comms in
  Array.sort Comm.compare comms;
  let roles = Array.make n Idle in
  let err = ref None in
  Array.iteri
    (fun i (c : Comm.t) ->
      if !err = None then
        if c.src >= n || c.dst >= n then err := Some (Out_of_range c)
        else begin
          (match roles.(c.src) with
          | Idle -> roles.(c.src) <- Source i
          | Source _ | Dest _ -> err := Some (Shared_endpoint c.src));
          match roles.(c.dst) with
          | Idle -> roles.(c.dst) <- Dest i
          | Source _ | Dest _ -> err := Some (Shared_endpoint c.dst)
        end)
    comms;
  match !err with
  | Some e -> Error e
  | None -> Ok { n; comms; roles = Atomic.make (Some roles) }

let create ~n comms =
  if n < 1 then invalid_arg "Comm_set.create: n must be positive";
  build ~n comms

let create_exn ~n comms =
  match create ~n comms with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Comm_set: %a" pp_error e)

let unsafe_of_sorted ~n comms = { n; comms; roles = Atomic.make None }

let empty ~n = create_exn ~n []

let n t = t.n
let size t = Array.length t.comms
let comms t = t.comms
let mem t c = Array.exists (Comm.equal c) t.comms
(* Two domains reading an unfilled table at once each build it and
   publish an equal, complete array; either one is correct. *)
let roles t =
  match Atomic.get t.roles with
  | Some r -> r
  | None ->
      let r = Array.make t.n Idle in
      Array.iteri
        (fun i (c : Comm.t) ->
          r.(c.src) <- Source i;
          r.(c.dst) <- Dest i)
        t.comms;
      Atomic.set t.roles (Some r);
      r

let role_of t p = (roles t).(p)

let is_right_oriented t = Array.for_all Comm.is_right_oriented t.comms
let is_left_oriented t = Array.for_all Comm.is_left_oriented t.comms

let matching t =
  Array.to_list t.comms |> List.map (fun (c : Comm.t) -> (c.src, c.dst))

let union a b =
  if a.n <> b.n then invalid_arg "Comm_set.union: different n";
  build ~n:a.n (Array.to_list a.comms @ Array.to_list b.comms)

let filter t f = create_exn ~n:t.n (List.filter f (Array.to_list t.comms))

let pp fmt t =
  Format.fprintf fmt "{n=%d; " t.n;
  Array.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt ", ";
      Comm.pp fmt c)
    t.comms;
  Format.fprintf fmt "}"

let to_string t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "n %d\n" t.n);
  Array.iter
    (fun (c : Comm.t) -> Buffer.add_string b (Printf.sprintf "%d %d\n" c.src c.dst))
    t.comms;
  Buffer.contents b

let of_string s =
  let lines = String.split_on_char '\n' s in
  let clean l =
    match String.index_opt l '#' with
    | Some i -> String.trim (String.sub l 0 i)
    | None -> String.trim l
  in
  let rec go lines n acc =
    match lines with
    | [] -> (
        match n with
        | None -> Error "missing 'n <count>' header"
        | Some n -> (
            match create ~n (List.rev acc) with
            | Ok t -> Ok t
            | Error e -> Error (Format.asprintf "%a" pp_error e)))
    | l :: rest -> (
        let l = clean l in
        if l = "" then go rest n acc
        else
          match String.split_on_char ' ' l |> List.filter (( <> ) "") with
          | [ "n"; v ] -> (
              match int_of_string_opt v with
              | Some v when v > 0 -> go rest (Some v) acc
              | _ -> Error (Printf.sprintf "bad PE count: %s" l))
          | [ a; b ] -> (
              match (int_of_string_opt a, int_of_string_opt b) with
              | Some s, Some d when s >= 0 && d >= 0 && s <> d ->
                  go rest n (Comm.make ~src:s ~dst:d :: acc)
              | _ -> Error (Printf.sprintf "bad communication line: %s" l))
          | _ -> Error (Printf.sprintf "unparseable line: %s" l))
  in
  go lines None []

let equal a b =
  a.n = b.n
  && Array.length a.comms = Array.length b.comms
  && Array.for_all2 Comm.equal a.comms b.comms
