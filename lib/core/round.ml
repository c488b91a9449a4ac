type decision = {
  config : Cst.Switch_config.t;
  to_left : Downmsg.t;
  to_right : Downmsg.t;
  scheduled_matched : bool;
}

let configure (st : Csa_state.t) (msg : Downmsg.t) =
  let cfg = ref Cst.Switch_config.empty in
  let connect ~output ~input =
    cfg := Cst.Switch_config.set !cfg ~output ~input
  in
  let li_used = ref false and ro_used = ref false in
  let left_s = ref None and left_d = ref None in
  let right_s = ref None and right_d = ref None in
  (match msg.Downmsg.sreq with
  | None -> ()
  | Some x ->
      if x < st.sl then begin
        (* The requested source is among the left child's pass-ups. *)
        connect ~output:Cst.Side.P ~input:Cst.Side.L;
        li_used := true;
        st.sl <- st.sl - 1;
        left_s := Some x
      end
      else begin
        assert (x - st.sl < st.sr);
        connect ~output:Cst.Side.P ~input:Cst.Side.R;
        st.sr <- st.sr - 1;
        right_s := Some (x - st.sl)
      end);
  (match msg.Downmsg.dreq with
  | None -> ()
  | Some x ->
      if x < st.dr then begin
        (* Counted from the right: among the right child's pass-downs. *)
        connect ~output:Cst.Side.R ~input:Cst.Side.P;
        ro_used := true;
        st.dr <- st.dr - 1;
        right_d := Some x
      end
      else begin
        assert (x - st.dr < st.dl);
        connect ~output:Cst.Side.L ~input:Cst.Side.P;
        st.dl <- st.dl - 1;
        left_d := Some (x - st.dr)
      end);
  let scheduled_matched =
    if st.m > 0 && (not !li_used) && not !ro_used then begin
      connect ~output:Cst.Side.R ~input:Cst.Side.L;
      st.m <- st.m - 1;
      (* Outermost remaining pair: source after the [sl] pass-ups of the
         left child, destination after the [dr] pass-downs of the right. *)
      left_s := Some st.sl;
      right_d := Some st.dr;
      true
    end
    else false
  in
  {
    config = !cfg;
    to_left = { Downmsg.sreq = !left_s; dreq = !left_d };
    to_right = { Downmsg.sreq = !right_s; dreq = !right_d };
    scheduled_matched;
  }

(* The per-domain workspace.  Switch-indexed arrays have [leaves]
   slots, indexed by node id like [Phase1]'s registers (slot 0 unused).
   [dirty] holds the switches the last sweep configured, bucketed by
   depth: the [dirty_len.(d)] switches configured at depth [d] sit at
   [dirty.(2^d) ..], in the ascending order a left-first descent visits
   them, so walking the buckets root-first lists them in ascending node
   order. *)
type workspace = {
  states : Csa_state.t array;
  pending : int array;
  wants : Cst.Switch_config.t array;
  dirty : int array;
  dirty_len : int array;
}

let make_workspace topo =
  let leaves = Cst.Topology.leaves topo in
  {
    states = Array.init leaves (fun _ -> Csa_state.zero ());
    pending = Array.make leaves 0;
    wants = Array.make leaves Cst.Switch_config.empty;
    dirty = Array.make leaves 0;
    dirty_len = Array.make (Cst.Topology.levels topo) 0;
  }

let last_workspace : workspace option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_workspace topo f =
  let ws =
    match Domain.DLS.get last_workspace with
    | Some ws when Array.length ws.pending = Cst.Topology.leaves topo ->
        Domain.DLS.set last_workspace None;
        ws
    | _ -> make_workspace topo
  in
  let r = f ws in
  Domain.DLS.set last_workspace (Some ws);
  r

let prepare ws topo set =
  let leaves = Cst.Topology.leaves topo in
  Phase1.fill topo set ws.states;
  for v = leaves - 1 downto 1 do
    let below =
      if 2 * v < leaves then ws.pending.(2 * v) + ws.pending.((2 * v) + 1)
      else 0
    in
    ws.pending.(v) <- ws.states.(v).m + below
  done;
  ws.pending.(Cst.Topology.root)

let iter_configured ws f =
  Array.iteri
    (fun depth len ->
      for i = 1 lsl depth to (1 lsl depth) + len - 1 do
        let node = ws.dirty.(i) in
        f node ws.wants.(node)
      done)
    ws.dirty_len

type outcome = {
  sources : int list;
  dests : int list;
  matched_count : int;
}

(* A child is worth entering when it receives a request or its subtree
   still owns an unscheduled match; any other child makes the null
   decision all the way down. *)
let[@inline] live ws ~leaves child (m : Downmsg.t) =
  m.sreq <> None || m.dreq <> None || (child < leaves && ws.pending.(child) > 0)

let sweep topo ws =
  let leaves = Cst.Topology.leaves topo in
  iter_configured ws (fun node _ -> ws.wants.(node) <- Cst.Switch_config.empty);
  Array.fill ws.dirty_len 0 (Array.length ws.dirty_len) 0;
  let sources = ref [] and dests = ref [] in
  (* [go] returns the matches scheduled in [node]'s subtree, which leave
     its pending count. *)
  let rec go node depth (msg : Downmsg.t) =
    if node >= leaves then begin
      let pe = node - leaves in
      (* A request reaching a leaf must have resolved to index 0, and a PE
         is never both endpoints of the same round. *)
      (match msg.sreq with
      | Some 0 -> sources := pe :: !sources
      | None -> ()
      | Some _ -> assert false);
      (match msg.dreq with
      | Some 0 -> dests := pe :: !dests
      | None -> ()
      | Some _ -> assert false);
      assert (not (msg.sreq <> None && msg.dreq <> None));
      0
    end
    else begin
      let d = configure ws.states.(node) msg in
      if not (Cst.Switch_config.is_empty d.config) then begin
        ws.wants.(node) <- d.config;
        let k = ws.dirty_len.(depth) in
        ws.dirty.((1 lsl depth) + k) <- node;
        ws.dirty_len.(depth) <- k + 1
      end;
      (* Heap layout: the children of [node] are [2 * node] and
         [2 * node + 1]. *)
      let l = 2 * node and r = (2 * node) + 1 in
      let in_left =
        if live ws ~leaves l d.to_left then go l (depth + 1) d.to_left else 0
      in
      let in_right =
        if live ws ~leaves r d.to_right then go r (depth + 1) d.to_right
        else 0
      in
      let matched = Bool.to_int d.scheduled_matched + in_left + in_right in
      ws.pending.(node) <- ws.pending.(node) - matched;
      matched
    end
  in
  let matched = go Cst.Topology.root 0 Downmsg.null in
  {
    sources = List.rev !sources;
    dests = List.rev !dests;
    matched_count = matched;
  }
