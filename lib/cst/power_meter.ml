(* The ledger is a pure derivation of the execution log: [of_log] is
   the only place in the codebase where power units are charged. *)

(* Counts only grow, so every total and per-switch maximum is kept up
   to date during the one pass over the log: reading a summary never
   scans the tree-sized ledger. *)
type t = {
  connects : int array;
  disconnects : int array;
  writes : int array;
  mutable total_connects : int;
  mutable total_disconnects : int;
  mutable total_writes : int;
  mutable max_connects : int;
  mutable max_writes : int;
  mutable max_events : int;
}

let of_log ?from ?upto ~num_nodes log =
  let t =
    {
      connects = Array.make (num_nodes + 1) 0;
      disconnects = Array.make (num_nodes + 1) 0;
      writes = Array.make (num_nodes + 1) 0;
      total_connects = 0;
      total_disconnects = 0;
      total_writes = 0;
      max_connects = 0;
      max_writes = 0;
      max_events = 0;
    }
  in
  let bump_events node =
    let e = t.connects.(node) + t.disconnects.(node) in
    if e > t.max_events then t.max_events <- e
  in
  Exec_log.iter ?from ?upto log (fun e ->
      match e with
      | Exec_log.Connect { node; _ } ->
          let c = t.connects.(node) + 1 in
          t.connects.(node) <- c;
          t.total_connects <- t.total_connects + 1;
          if c > t.max_connects then t.max_connects <- c;
          bump_events node
      | Exec_log.Disconnect { node; _ } ->
          t.disconnects.(node) <- t.disconnects.(node) + 1;
          t.total_disconnects <- t.total_disconnects + 1;
          bump_events node
      | Exec_log.Write_config { node; count } ->
          let w = t.writes.(node) + count in
          t.writes.(node) <- w;
          t.total_writes <- t.total_writes + count;
          if w > t.max_writes then t.max_writes <- w
      | Exec_log.Phase_done _ | Exec_log.Round_begin _ | Exec_log.Deliver _
      | Exec_log.Run_end _ ->
          ());
  t

let connects t ~node = t.connects.(node)
let disconnects t ~node = t.disconnects.(node)
let writes t ~node = t.writes.(node)
let total_connects t = t.total_connects
let total_disconnects t = t.total_disconnects
let total_writes t = t.total_writes
let max_connects_per_switch t = t.max_connects
let max_writes_per_switch t = t.max_writes
let max_events_per_switch t = t.max_events
let per_switch_connects t = t.connects
let per_switch_writes t = t.writes
let per_switch_disconnects t = t.disconnects

let pp fmt t =
  Format.fprintf fmt
    "power: %d connects (%d disconnects, %d writes), max per switch %d \
     connects / %d writes"
    (total_connects t) (total_disconnects t) (total_writes t)
    (max_connects_per_switch t) (max_writes_per_switch t)
