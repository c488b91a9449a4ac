open Helpers
open Cst

(* Manually configure the path 0 -> 7 on an 8-leaf CST and check that the
   data plane follows it hop by hop. *)
let meter net =
  Power_meter.of_log ~num_nodes:(Topology.num_nodes (Net.topology net))
    (Net.log net)

let configure_0_to_7 net =
  let cfg ~output ~input = Switch_config.set Switch_config.empty ~output ~input in
  Net.reconfigure net ~node:4 (cfg ~output:Side.P ~input:Side.L);
  Net.reconfigure net ~node:2 (cfg ~output:Side.P ~input:Side.L);
  Net.reconfigure net ~node:1 (cfg ~output:Side.R ~input:Side.L);
  Net.reconfigure net ~node:3 (cfg ~output:Side.R ~input:Side.P);
  Net.reconfigure net ~node:7 (cfg ~output:Side.R ~input:Side.P)

let test_route_full_path () =
  let net = Net.create (topo 8) in
  configure_0_to_7 net;
  check_true "0 routes to 7" (Data_plane.route net ~src:0 = Some 7)

let test_trace_hops () =
  let net = Net.create (topo 8) in
  configure_0_to_7 net;
  let hops, dst = Data_plane.trace_from net ~src:0 in
  check_true "delivered" (dst = Some 7);
  check_int "five switches" 5 (List.length hops);
  let nodes = List.map (fun (h : Data_plane.hop) -> h.node) hops in
  check_true "path order" (nodes = [ 4; 2; 1; 3; 7 ])

let test_route_dead_end () =
  let net = Net.create (topo 8) in
  check_true "unconfigured dead end" (Data_plane.route net ~src:0 = None)

let test_route_partial_dead_end () =
  let net = Net.create (topo 8) in
  Net.reconfigure net ~node:4
    (Switch_config.set Switch_config.empty ~output:Side.P ~input:Side.L);
  check_true "stops at node 2" (Data_plane.route net ~src:0 = None)

let test_route_to_root_parent_is_dead () =
  let net = Net.create (topo 8) in
  Net.reconfigure net ~node:4
    (Switch_config.set Switch_config.empty ~output:Side.P ~input:Side.L);
  Net.reconfigure net ~node:2
    (Switch_config.set Switch_config.empty ~output:Side.P ~input:Side.L);
  Net.reconfigure net ~node:1
    (Switch_config.set Switch_config.empty ~output:Side.P ~input:Side.L);
  (* the root's parent output leads nowhere *)
  check_true "root p_o is a dead end" (Data_plane.route net ~src:0 = None)

let test_neighbor_route () =
  let net = Net.create (topo 8) in
  Net.reconfigure net ~node:4
    (Switch_config.set Switch_config.empty ~output:Side.R ~input:Side.L);
  check_true "0 to 1" (Data_plane.route net ~src:0 = Some 1)

let test_transfer_moves_data () =
  let net = Net.create (topo 8) in
  configure_0_to_7 net;
  Net.pe_write net ~pe:0 4242;
  let deliveries = Data_plane.transfer net ~sources:[ 0 ] in
  check_true "delivery list" (deliveries = [ (0, 7) ]);
  check_true "register latched" (Net.pe_read net ~pe:7 = Some 4242);
  check_true "other registers empty" (Net.pe_read net ~pe:3 = None)

let test_transfer_silent_source () =
  let net = Net.create (topo 8) in
  check_true "no route, no delivery"
    (Data_plane.transfer net ~sources:[ 0 ] = [])

let test_power_charged () =
  let net = Net.create (topo 8) in
  configure_0_to_7 net;
  check_int "five connects" 5 (Power_meter.total_connects (meter net));
  check_int "five writes" 5 (Power_meter.total_writes (meter net));
  (* identical reconfiguration costs no transition but pays writes *)
  configure_0_to_7 net;
  check_int "still five connects" 5 (Power_meter.total_connects (meter net));
  check_int "writes doubled" 10 (Power_meter.total_writes (meter net))

let test_lazy_reconfigure_writes () =
  let net = Net.create (topo 8) in
  let want = Switch_config.set Switch_config.empty ~output:Side.P ~input:Side.L in
  Net.reconfigure_lazy net ~node:4 ~want;
  Net.reconfigure_lazy net ~node:4 ~want;
  check_int "one write only" 1 (Power_meter.total_writes (meter net));
  Net.reconfigure_lazy net ~node:4 ~want:Switch_config.empty;
  check_true "connection persists"
    (Switch_config.driver (Net.config net 4) Side.P = Some Side.L);
  check_int "still one write" 1 (Power_meter.total_writes (meter net))

let test_clear_all () =
  let net = Net.create (topo 8) in
  configure_0_to_7 net;
  Net.clear_all net;
  for node = 1 to 7 do
    check_true "cleared" (Switch_config.is_empty (Net.config net node))
  done;
  check_int "disconnects charged" 5
    (Power_meter.total_disconnects (meter net))

let test_register_reset () =
  let net = Net.create (topo 8) in
  Net.pe_write net ~pe:3 7;
  Net.pe_deliver net ~pe:2 9;
  Net.reset_registers net;
  check_int "out cleared" 0 (Net.pe_out net ~pe:3);
  check_true "in cleared" (Net.pe_read net ~pe:2 = None)

let test_bad_indices () =
  let net = Net.create (topo 8) in
  check_raises_invalid "leaf is not a switch" (fun () -> Net.config net 8);
  check_raises_invalid "bad pe" (fun () -> Net.pe_write net ~pe:8 0)

(* Input L of switch 4 (above PEs 0 and 1) drives both R and P: only
   [with_driver] builds such a fan-out.  The signal follows the first
   driven output in side order, so PE 0 reaches PE 1 alone. *)
let fan_out_net () =
  let net = Net.create (topo 8) in
  let cfg =
    Switch_config.with_driver
      (Switch_config.with_driver Switch_config.empty ~output:Side.R
         ~input:(Some Side.L))
      ~output:Side.P ~input:(Some Side.L)
  in
  Net.reconfigure net ~node:4 cfg;
  net

let test_transfer_collision () =
  let net = fan_out_net () in
  check_true "fan-out routes to the first output"
    (Data_plane.route net ~src:0 = Some 1);
  (* Every output has one driver, so the path into a port is unique and
     two distinct sources never meet: a collision takes a source listed
     twice, whatever the order of the list. *)
  check_raises_invalid "source listed twice" (fun () ->
      Data_plane.transfer net ~sources:[ 0; 0 ]);
  check_raises_invalid "repeat after another source" (fun () ->
      Data_plane.transfer net ~sources:[ 0; 1; 0 ]);
  check_true "a silent repeat is no collision"
    (Data_plane.transfer net ~sources:[ 1; 1 ] = []);
  check_true "nothing was latched by the failed transfers"
    (Net.pe_read net ~pe:1 = None);
  check_true "unsorted distinct sources"
    (Data_plane.transfer net ~sources:[ 1; 0 ] = [ (0, 1) ])

(* On arbitrary codes — illegal ones included — [route] is
   [trace_from]'s destination, and distinct sources deliver to distinct
   PEs. *)
let test_route_matches_trace =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"route = trace_from on any codes"
       QCheck.(array_of_size (Gen.return 15) (int_bound 63))
       (fun codes ->
         let net = Net.create (topo 16) in
         Array.iteri
           (fun i c ->
             Net.reconfigure net ~node:(i + 1) (Switch_config.of_code c))
           codes;
         let pes = List.init 16 Fun.id in
         List.for_all
           (fun src ->
             Data_plane.route net ~src = snd (Data_plane.trace_from net ~src))
           pes
         &&
         let dsts = List.map snd (Data_plane.transfer net ~sources:pes) in
         List.length (List.sort_uniq compare dsts) = List.length dsts))

(* Every configuration [Switch_config.set] can build: the closure of the
   empty configuration under every connection [set] accepts. *)
let buildable_configs () =
  let rec close seen = function
    | [] -> seen
    | cfg :: rest ->
        let next =
          List.concat_map
            (fun output ->
              List.filter_map
                (fun input ->
                  match Switch_config.set cfg ~output ~input with
                  | c when not (List.exists (Switch_config.equal c) seen) ->
                      Some c
                  | _ -> None
                  | exception Invalid_argument _ -> None)
                Side.all)
            Side.all
          |> List.sort_uniq compare
        in
        close (seen @ next) (rest @ next)
  in
  close [ Switch_config.empty ] [ Switch_config.empty ]

(* A lazy reconfiguration that wants nothing is a no-op, from every
   configuration the switch can hold: its configuration stays and the
   log gains no event.  This is what lets a scheduler skip every switch
   it did not configure this round. *)
let test_lazy_empty_want_is_noop () =
  let configs = buildable_configs () in
  check_int "buildable configurations" 18 (List.length configs);
  List.iter
    (fun cfg ->
      let net = Net.create (topo 8) in
      Net.reconfigure net ~node:3 cfg;
      let log = Net.log net in
      let before = Exec_log.Codec.encode log in
      Net.reconfigure_lazy net ~node:3 ~want:Switch_config.empty;
      let msg = Format.asprintf "%a" Switch_config.pp cfg in
      check_true (msg ^ ": configuration kept")
        (Switch_config.equal (Net.config net 3) cfg);
      check_true (msg ^ ": log untouched")
        (Bytes.equal before (Exec_log.Codec.encode log)))
    configs

let test_route_rejects_non_binary () =
  let net = Net.create (Topology.of_shape (Shape.kary ~k:4 ~leaves:16)) in
  check_raises_invalid "route" (fun () -> Data_plane.route net ~src:0);
  check_raises_invalid "transfer" (fun () ->
      Data_plane.transfer net ~sources:[ 0 ])

let suite =
  [
    case "route full path" test_route_full_path;
    case "trace hops" test_trace_hops;
    case "route dead end" test_route_dead_end;
    case "route partial dead end" test_route_partial_dead_end;
    case "root parent is dead" test_route_to_root_parent_is_dead;
    case "neighbor route" test_neighbor_route;
    case "transfer moves data" test_transfer_moves_data;
    case "transfer silent source" test_transfer_silent_source;
    case "power charged" test_power_charged;
    case "lazy reconfigure writes" test_lazy_reconfigure_writes;
    case "clear all" test_clear_all;
    case "register reset" test_register_reset;
    case "bad indices" test_bad_indices;
    case "transfer collision" test_transfer_collision;
    case "route rejects a non-binary net" test_route_rejects_non_binary;
    case "lazy empty want is a no-op" test_lazy_empty_want_is_noop;
    test_route_matches_trace;
  ]
