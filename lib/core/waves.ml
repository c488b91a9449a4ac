type t = {
  set : Cst_comm.Comm_set.t;
  right_waves : Schedule.t list;
  left_waves : Schedule.t list;
  rounds : int;
  cycles : int;
  power : Schedule.power;
}

let run_part net layers =
  let topo = Cst.Net.topology net in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | layer :: rest -> (
        match Csa.run ~net topo layer with
        | Ok s -> go (s :: acc) rest
        | Error e -> Error e)
  in
  go [] layers

let run ~right ~left set =
  let topo = Cst.Net.topology right in
  let right_part, left_part = Cst_comm.Decompose.split set in
  match run_part right (Cst_comm.Wn_cover.layers right_part) with
  | Error e -> Error e
  | Ok right_waves -> (
      match
        run_part left
          (Cst_comm.Wn_cover.layers (Cst_comm.Mirror.set left_part))
      with
      | Error e -> Error e
      | Ok left_waves ->
          let sum f =
            List.fold_left (fun acc s -> acc + f s) 0
              (right_waves @ left_waves)
          in
          (* Each wave's power is its own share of its net's log; the
             left part's switches are mirrored back. *)
          let add f acc (s : Schedule.t) =
            Schedule.combine_power acc (f s.power)
          in
          let power =
            List.fold_left
              (add (Schedule.mirror_power topo))
              (List.fold_left (add Fun.id)
                 (Schedule.zero_power ~num_nodes:(Cst.Topology.num_nodes topo))
                 right_waves)
              left_waves
          in
          Ok
            {
              set;
              right_waves;
              left_waves;
              rounds = sum Schedule.num_rounds;
              cycles = sum (fun (s : Schedule.t) -> s.cycles);
              power;
            })

let schedule ?leaves ?log set =
  let leaves =
    match leaves with
    | Some l -> l
    | None -> Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n set))
  in
  let topo = Cst.Topology.create ~leaves in
  run ~right:(Cst.Net.create ?log topo) ~left:(Cst.Net.create ?log topo) set

let schedule_exn ?leaves ?log set =
  match schedule ?leaves ?log set with
  | Ok t -> t
  | Error e -> invalid_arg (Format.asprintf "Waves: %a" Csa.pp_error e)

let deliveries t =
  let right =
    List.concat_map Schedule.all_deliveries t.right_waves
  in
  let n = Cst_comm.Comm_set.n t.set in
  let left =
    List.concat_map
      (fun s ->
        List.map
          (fun (src, dst) ->
            (Cst_comm.Mirror.pe ~n src, Cst_comm.Mirror.pe ~n dst))
          (Schedule.all_deliveries s))
      t.left_waves
  in
  List.sort compare (right @ left)

let num_waves t = List.length t.right_waves + List.length t.left_waves

let pp fmt t =
  Format.fprintf fmt
    "waves: %d communications in %d wave(s), %d rounds, %d cycles, %d power \
     units (%d writes), max %d connects/switch"
    (Cst_comm.Comm_set.size t.set)
    (num_waves t) t.rounds t.cycles t.power.total_connects
    t.power.total_writes t.power.max_connects_per_switch
