type t = { n : int; cuts : bool array }

let create ~n =
  if n < 2 then invalid_arg "Segbus.create: n < 2";
  { n; cuts = Array.make (n - 1) false }

let n t = t.n

let check_switch t i =
  if i < 0 || i >= t.n - 1 then invalid_arg "Segbus: bad switch index"

let cut t i =
  check_switch t i;
  t.cuts.(i) <- true

let join t i =
  check_switch t i;
  t.cuts.(i) <- false

let is_cut t i =
  check_switch t i;
  t.cuts.(i)

let segments t =
  let acc = ref [] and lo = ref 0 in
  for i = 0 to t.n - 2 do
    if t.cuts.(i) then begin
      acc := (!lo, i) :: !acc;
      lo := i + 1
    end
  done;
  List.rev ((!lo, t.n - 1) :: !acc)

let segment_of t pe =
  if pe < 0 || pe >= t.n then invalid_arg "Segbus.segment_of";
  List.find (fun (lo, hi) -> pe >= lo && pe <= hi) (segments t)

type write = { writer : int; reader : int }

type error =
  | Cross_segment of write
  | Bus_contention of int
  | Self_write of write
  | Scheduler of Padr.error

let pp_error fmt = function
  | Cross_segment w ->
      Format.fprintf fmt
        "write %d->%d spans two bus segments" w.writer w.reader
  | Bus_contention pe ->
      Format.fprintf fmt "two writers drive the segment of PE %d" pe
  | Self_write w -> Format.fprintf fmt "PE %d writes to itself" w.writer
  | Scheduler e ->
      Format.fprintf fmt "CST scheduling failed: %a" Padr.pp_error e

let validate t writes =
  let rec go seen = function
    | [] -> Ok ()
    | w :: rest ->
        if w.writer = w.reader then Error (Self_write w)
        else
          let seg_w = segment_of t w.writer in
          let seg_r = segment_of t w.reader in
          if seg_w <> seg_r then Error (Cross_segment w)
          else if List.mem seg_w seen then Error (Bus_contention w.writer)
          else go (seg_w :: seen) rest
  in
  go [] writes

let run_bus t writes =
  match validate t writes with
  | Error e -> Error e
  | Ok () ->
      Ok
        (List.sort compare
           (List.map (fun w -> (w.writer, w.reader)) writes))

let to_comm_set t writes =
  match validate t writes with
  | Error e -> Error e
  | Ok () ->
      Ok
        (Cst_comm.Comm_set.create_exn ~n:t.n
           (List.map
              (fun w -> Cst_comm.Comm.make ~src:w.writer ~dst:w.reader)
              writes))

let run_on_cst t writes =
  match to_comm_set t writes with
  | Error e -> Error e
  | Ok set -> (
      match Padr.Waves.schedule set with
      | Ok w -> Ok w
      | Error e ->
          (* Disjoint segments always produce schedulable parts, so this
             is unreachable for sets built by [to_comm_set]; if it ever
             fires, the caller gets the scheduler's structured error
             rather than a stringified [Invalid_argument]. *)
          Error (Scheduler e))
