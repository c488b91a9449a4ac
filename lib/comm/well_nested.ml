type violation =
  | Not_right_oriented of Comm.t
  | Crossing of Comm.t * Comm.t

let pp_violation fmt = function
  | Not_right_oriented c ->
      Format.fprintf fmt "communication %a is not right-oriented" Comm.pp c
  | Crossing (a, b) ->
      Format.fprintf fmt "communications %a and %a cross" Comm.pp a Comm.pp b

let check set =
  let comms = Comm_set.comms set in
  match Array.find_opt Comm.is_left_oriented comms with
  | Some c -> Error (Not_right_oriented c)
  | None -> (
      (* Scan PEs left to right with a stack of open communications: a
         destination must close the most recently opened communication. *)
      let stack = ref [] in
      let bad = ref None in
      Array.iter
        (fun role ->
          if !bad = None then
            match role with
            | Comm_set.Source i -> stack := i :: !stack
            | Comm_set.Dest i -> (
                match !stack with
                | top :: rest when top = i -> stack := rest
                | top :: _ -> bad := Some (Crossing (comms.(top), comms.(i)))
                | [] ->
                    (* Impossible for a valid right-oriented set: the source
                       of [i] lies strictly to the left and was pushed. *)
                    assert false)
            | Comm_set.Idle -> ())
        (Comm_set.roles set);
      match !bad with
      | Some v -> Error v
      | None -> Ok ())

let is_well_nested set = Result.is_ok (check set)

let crossing_pairs set =
  let comms = Comm_set.comms set in
  let acc = ref [] in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b -> if i < j && Comm.crosses a b then acc := (a, b) :: !acc)
        comms)
    comms;
  List.rev !acc
