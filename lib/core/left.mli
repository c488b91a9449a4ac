(** Native CSA for left-oriented well-nested sets.

    The paper handles right-oriented sets and notes that "dealing with
    right oriented sets can be adjusted easily to left oriented sets"
    (§2.1).  This module is that adjustment, written out: every rule of
    Phase 1 and of the round procedure with the roles of the two children
    exchanged — matching pairs are [min(S_R, D_L)] and take the
    [r_i -> l_o] connection, sources pass up from the right child with
    priority, destinations go down to the left, and Definition 2's indices
    count sources from the {e right} and destinations from the {e left}.

    [run] produces schedules isomorphic under reflection to running the
    right-oriented CSA on the mirrored set — the test suite checks round
    counts, deliveries and per-switch power agree through
    {!Cst.Topology.mirror_node}; all of the paper's theorems transfer. *)

val run :
  ?net:Cst.Net.t ->
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (Schedule.t, Csa.error) result
(** Schedules a left-oriented well-nested set (every member has
    [dst < src]).  Errors mirror {!Csa.run}'s. *)

val run_exn :
  ?net:Cst.Net.t ->
  ?log:Cst.Exec_log.t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  Schedule.t
