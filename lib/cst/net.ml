type t = {
  topo : Topology.t;
  configs : Switch_config.t array; (* indexed by internal node id *)
  log : Exec_log.t;
  out_regs : int array; (* PE output registers *)
  in_regs : int array; (* PE input registers, valid where [in_full] *)
  in_full : Bytes.t;
}

let create ?log topo =
  let leaves = Topology.leaves topo in
  let log = match log with Some l -> l | None -> Exec_log.create () in
  {
    topo;
    configs = Array.make leaves Switch_config.empty;
    log;
    out_regs = Array.make leaves 0;
    in_regs = Array.make leaves 0;
    in_full = Bytes.make leaves '\000';
  }

let topology t = t.topo
let log t = t.log

let check_internal t node =
  if not (Topology.is_internal t.topo node) then
    invalid_arg (Printf.sprintf "Net: node %d is not a switch" node)

let config t node =
  check_internal t node;
  t.configs.(node)

(* Log one event per output whose driver actually changes, in side
   order.  A driver change from one input to another is a single
   [Connect] and no [Disconnect] — the same convention as
   [Switch_config.diff]. *)
let emit_transitions t ~node ~old_config ~new_config =
  if not (Switch_config.equal old_config new_config) then
    for o = 0 to 2 do
      let out = Side.of_index o in
      match
        ( Switch_config.driver old_config out,
          Switch_config.driver new_config out )
      with
      | None, None -> ()
      | Some a, Some b when Side.equal a b -> ()
      | _, Some b -> Exec_log.connect t.log ~node ~out_port:out ~in_port:b
      | Some a, None -> Exec_log.disconnect t.log ~node ~out_port:out ~in_port:a
    done

let reconfigure t ~node cfg =
  check_internal t node;
  emit_transitions t ~node ~old_config:t.configs.(node) ~new_config:cfg;
  (* A per-round reconfiguration installs every connection it demands:
     the switch has no way to know its register still holds the value. *)
  let writes = Switch_config.connection_count cfg in
  if writes > 0 then Exec_log.write_config t.log ~node ~count:writes;
  t.configs.(node) <- cfg

let reconfigure_lazy t ~node ~want =
  check_internal t node;
  let prev = t.configs.(node) in
  let next = Switch_config.merge_lazy ~prev ~want in
  (* The PADR switch only touches outputs whose driver actually changes:
     it writes exactly the connects it makes. *)
  emit_transitions t ~node ~old_config:prev ~new_config:next;
  let { Switch_config.connects; _ } =
    Switch_config.diff ~old_config:prev ~new_config:next
  in
  if connects > 0 then Exec_log.write_config t.log ~node ~count:connects;
  t.configs.(node) <- next

let clear_all t =
  for node = 1 to Topology.leaves t.topo - 1 do
    reconfigure t ~node Switch_config.empty
  done

let check_pe t pe =
  if pe < 0 || pe >= Topology.leaves t.topo then
    invalid_arg (Printf.sprintf "Net: bad PE %d" pe)

let pe_write t ~pe v =
  check_pe t pe;
  t.out_regs.(pe) <- v

let pe_out t ~pe =
  check_pe t pe;
  t.out_regs.(pe)

let pe_read t ~pe =
  check_pe t pe;
  if Bytes.get t.in_full pe = '\000' then None else Some t.in_regs.(pe)

let pe_deliver t ~pe v =
  check_pe t pe;
  t.in_regs.(pe) <- v;
  Bytes.set t.in_full pe '\001'

let reset_registers t =
  Array.fill t.out_regs 0 (Array.length t.out_regs) 0;
  Array.fill t.in_regs 0 (Array.length t.in_regs) 0;
  Bytes.fill t.in_full 0 (Bytes.length t.in_full) '\000'

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@," Topology.pp t.topo;
  for node = 1 to Topology.leaves t.topo - 1 do
    if not (Switch_config.is_empty t.configs.(node)) then
      Format.fprintf fmt "switch %d: %a@," node Switch_config.pp
        t.configs.(node)
  done;
  Format.fprintf fmt "%a@]" Power_meter.pp
    (Power_meter.of_log ~num_nodes:(Topology.num_nodes t.topo) t.log)
