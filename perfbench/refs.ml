(* The correctness gate.

   Reference outcomes come from an independent producer: the functional
   spec scheduler (the service's [Spec] path) with the plan cache off, on
   the calling domain.  They are computed outside every timed run and
   cached in a file keyed by the job list's fingerprint, so the repeated
   runs of one seed pay for them once. *)

module Service = Cst_service.Service

type entry = {
  digest : string;
  width : int;  (** [Cst_comm.Width.width] of the set *)
  right_wn : bool;  (** right-oriented and well-nested: Theorem 5 applies *)
}

let header (w : Work.t) = "perfbench-refs 3 " ^ Work.fingerprint w

let entry (w : Work.t) set =
  let job = Service.job ~engine:Service.Spec ~leaves:w.pes ~id:0 ~algo:"csa" set in
  match Service.run_job job with
  | Ok r ->
      {
        digest = r.digest;
        width = Cst_comm.Width.width ~leaves:w.pes set;
        right_wn =
          Cst_comm.Comm_set.is_right_oriented set
          && Cst_comm.Well_nested.is_well_nested set;
      }
  | Error e ->
      failwith (Format.asprintf "reference producer failed: %a" Service.pp_error e)

(* One entry per job of the list, set-up jobs included, indexed by job
   id; a set that recurs (the recurring workload's translates) is
   computed once. *)
let compute (w : Work.t) =
  let memo = Hashtbl.create 256 in
  Array.map
    (fun set ->
      let key = Cst_comm.Comm_set.to_string set in
      match Hashtbl.find_opt memo key with
      | Some e -> e
      | None ->
          let e = entry w set in
          Hashtbl.add memo key e;
          e)
    (Work.jobs w)

(* File format: the header, then one line [id digest width right_wn]
   per job. *)
let write ~path (w : Work.t) table =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (header w ^ "\n");
  Array.iteri
    (fun i e -> Printf.fprintf oc "%d %s %d %B\n" i e.digest e.width e.right_wn)
    table;
  close_out oc;
  Sys.rename tmp path

(* The whole table from [path]; [None] when the file is missing,
   incomplete or describes another job list. *)
let load ~path (w : Work.t) =
  let n = Array.length (Work.jobs w) in
  match open_in path with
  | exception Sys_error _ -> None
  | ic -> (
      let table = Array.make n None in
      let read () =
        if input_line ic = header w then
          try
            while true do
              Scanf.sscanf (input_line ic) "%d %s %d %B" (fun i digest width right_wn ->
                  if i >= 0 && i < n then table.(i) <- Some { digest; width; right_wn })
            done
          with End_of_file -> ()
      in
      match Fun.protect ~finally:(fun () -> close_in ic) read with
      | () ->
          if Array.for_all Option.is_some table then
            Some (Array.map Option.get table)
          else None
      | exception (End_of_file | Scanf.Scan_failure _ | Failure _) -> None)

(* The failures of a run: how many jobs failed, and the first few
   reasons. *)
type tally = { mutable failed : int; mutable reasons : string list }

let tally () = { failed = 0; reasons = [] }

let fail t k why =
  t.failed <- t.failed + 1;
  if t.failed <= 5 then t.reasons <- t.reasons @ [ Printf.sprintf "job %d: %s" k why ]

(* [None] when the outcome passes the gate, else why it fails. *)
let check (e : entry) (result : (Service.job_result, Service.error) result) =
  match result with
  | Error err -> Some (Format.asprintf "error outcome: %a" Service.pp_error err)
  | Ok r when r.digest <> e.digest ->
      Some (Printf.sprintf "digest %s, reference %s" r.digest e.digest)
  | Ok r when e.right_wn && r.rounds <> e.width ->
      Some (Printf.sprintf "rounds %d but width %d (Theorem 5)" r.rounds e.width)
  | Ok _ -> None
