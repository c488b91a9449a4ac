(* Segment-parallel engine: per-block sparse-engine runs, rebased and
   merged round-by-round.  See the interface for the independence
   argument; the digest/schedule identity with the sequential engine is
   property-tested in test/test_par_engine.ml. *)

(* Ascending subtree-span ladder of a shape (1, ..., leaves), the block
   alignment grid for non-binary topologies. *)
let span_ladder topo =
  let shape = Cst.Topology.shape topo in
  let levels = Cst.Shape.levels shape in
  let leaves = Cst.Shape.leaves shape in
  Array.init (levels + 1) (fun i ->
      leaves / Cst.Shape.size_at shape ~depth:(levels - i))

let decompose topo set =
  match Sched_error.check topo set with
  | Error e -> Error e
  | Ok () ->
      let spans =
        if Cst.Topology.is_binary topo then None else Some (span_ladder topo)
      in
      Ok (Cst_comm.Decompose.blocks ~check:false ?spans set)

let run_block ?small topo (b : Cst_comm.Decompose.block) =
  if not (Cst.Topology.is_binary topo) then begin
    (* Non-binary blocks run in absolute coordinates on the shared full
       topology — rebase's subtree congruence is a binary property, and
       the capacity engine is cheap on the block's own links only. *)
    let log = Cst.Exec_log.create () in
    match Cap_engine.run_log ~log topo b.set with
    | Error e -> Error e
    | Ok _stats -> Ok log
  end
  else
    let small =
      match small with
      | Some t -> t
      | None -> Cst.Topology.create ~leaves:b.align
    in
    let local = Cst_comm.Decompose.localize b in
    let log = Cst.Exec_log.create () in
    match Engine.run_log ~log small local with
    | Error e -> Error e
    | Ok _stats ->
        (* The log is private to this call: rebase it in place. *)
        Ok
          (Cst.Exec_log.rebase ~in_place:true log ~src_leaves:b.align
             ~src_base:0 ~dst_leaves:(Cst.Topology.leaves topo)
             ~dst_base:b.base ~align:b.align)

let merge_blocks ?log topo set block_logs =
  let levels = Cst.Topology.levels topo in
  let out = match log with Some l -> l | None -> Cst.Exec_log.create () in
  let from = Cst.Exec_log.length out in
  let merged = Cst.Exec_log.merge ~into:out ~levels block_logs in
  let stats =
    Cap_engine.stats_for topo ~rounds:(Cst.Exec_log.final_rounds merged)
  in
  (Schedule.of_log ~from ~set ~topo ~cycles:stats.cycles merged, stats)

let run ?(domains = 1) ?log topo set =
  match decompose topo set with
  | Error e -> Error e
  | Ok blocks -> (
      let arr = Array.of_list blocks in
      let nblocks = Array.length arr in
      (* Blocks share at most log2(leaves) distinct align sizes; build
         each small topology once.  Topologies are immutable after
         [create], so sharing them across domains is safe. *)
      let small_topos =
        if not (Cst.Topology.is_binary topo) then []
        else
          Array.fold_left
            (fun acc (b : Cst_comm.Decompose.block) ->
              if List.mem_assoc b.align acc then acc
              else (b.align, Cst.Topology.create ~leaves:b.align) :: acc)
            [] arr
      in
      let run_one (b : Cst_comm.Decompose.block) =
        match List.assoc_opt b.align small_topos with
        | Some small -> run_block ~small topo b
        | None -> run_block topo b
      in
      let results = Array.make nblocks None in
      let body () =
        if domains <= 1 || nblocks <= 1 then
          Array.iteri (fun i b -> results.(i) <- Some (run_one b)) arr
        else begin
          (* Work-stealing over an atomic cursor; [Domain.join] orders
             the helpers' writes to [results] before the reads below. *)
          let cursor = Atomic.make 0 in
          let worker () =
            let continue = ref true in
            while !continue do
              let i = Atomic.fetch_and_add cursor 1 in
              if i >= nblocks then continue := false
              else results.(i) <- Some (run_one arr.(i))
            done
          in
          let helpers =
            Array.init
              (min domains nblocks - 1)
              (fun _ -> Domain.spawn worker)
          in
          worker ();
          Array.iter Domain.join helpers
        end
      in
      body ();
      let rec collect i acc =
        if i = nblocks then Ok (List.rev acc)
        else
          match results.(i) with
          | Some (Ok l) -> collect (i + 1) (l :: acc)
          | Some (Error e) -> Error e
          | None -> assert false
      in
      match collect 0 [] with
      | Error e -> Error e
      | Ok logs -> Ok (merge_blocks ?log topo set logs))
