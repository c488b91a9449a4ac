open Helpers

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_topology_export () =
  let txt = Cst.Dot.of_topology (topo 8) in
  check_true "digraph" (contains ~sub:"digraph cst" txt);
  check_true "root node" (contains ~sub:"n1 [shape=circle" txt);
  check_true "a PE" (contains ~sub:"pe7 [shape=box" txt);
  check_true "a tree link" (contains ~sub:"n1 -> n2" txt);
  check_true "leaf link" (contains ~sub:"n4 -> pe0" txt);
  check_true "closed" (String.length txt > 2 && contains ~sub:"}" txt)

let test_net_export_paths () =
  let s = schedule ~n:8 [ (0, 7) ] in
  let net = Cst.Net.create (topo 8) in
  List.iter
    (fun (node, cfg) -> Cst.Net.reconfigure net ~node cfg)
    (List.assoc 1 (snapshots s));
  let txt = Cst.Dot.of_net net in
  check_true "xlabel for a live connection" (contains ~sub:"xlabel=\"L>" txt);
  check_true "path from source" (contains ~sub:"pe0 -> n4" txt);
  check_true "path to destination" (contains ~sub:"-> pe7" txt);
  check_true "colored" (contains ~sub:"color=red" txt)

let test_net_export_idle () =
  let txt = Cst.Dot.of_net (Cst.Net.create (topo 8)) in
  check_true "no realized path" (not (contains ~sub:"penwidth=2" txt))

let test_write_file () =
  let path = Filename.temp_file "cstdot" ".dot" in
  Cst.Dot.write_file ~path (Cst.Dot.of_topology (topo 4));
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Sys.remove path;
  check_true "written" (contains ~sub:"digraph" first)

let suite =
  [
    case "topology export" test_topology_export;
    case "net export paths" test_net_export_paths;
    case "net export idle" test_net_export_idle;
    case "write file" test_write_file;
  ]
