open Helpers

let lines s = String.split_on_char '\n' s

let test_axis () =
  let a = Cst_report.Arc_diagram.axis ~n:12 in
  match lines a with
  | [ tens; units; "" ] ->
      check_int "tens width" 12 (String.length tens);
      check_true "units cycle" (units = "012345678901");
      check_true "tens mark" (tens.[0] = '0' && tens.[10] = '1')
  | _ -> Alcotest.fail "axis must be two lines"

let test_render_set_simple () =
  let s = set ~n:8 [ (1, 4) ] in
  let txt = Cst_report.Arc_diagram.render_set s in
  match lines txt with
  | row :: _ ->
      check_true "span drawn" (row = " +-->   ")
  | [] -> Alcotest.fail "no output"

let test_render_set_nested_stacks () =
  let s = set ~n:8 [ (0, 7); (1, 2) ] in
  let txt = Cst_report.Arc_diagram.render_set s in
  let rows = lines txt in
  (* two body rows + two axis rows + trailing newline *)
  check_int "stacked rows" 5 (List.length rows);
  check_true "outer on first row" (List.nth rows 0 = "+------>");
  check_true "inner on second row" (List.nth rows 1 = " +>     ")

let test_render_set_left_oriented () =
  let s = set ~n:8 [ (5, 2) ] in
  let txt = Cst_report.Arc_diagram.render_set s in
  check_true "left arrow" (List.nth (lines txt) 0 = "  <--+  ")

let test_render_disjoint_share_row () =
  let s = set ~n:8 [ (0, 1); (3, 4); (6, 7) ] in
  let txt = Cst_report.Arc_diagram.render_set s in
  check_true "one row" (List.nth (lines txt) 0 = "+> +> +>")

let test_render_rounds () =
  let txt =
    Cst_report.Arc_diagram.render_rounds ~n:8
      [ (1, [ (0, 7) ]); (2, [ (1, 2); (4, 3) ]) ]
  in
  check_true "round headers"
    (List.exists (fun l -> l = "round 1:") (lines txt)
    && List.exists (fun l -> l = "round 2:") (lines txt))

let test_link_utilization () =
  let sched = schedule ~n:8 [ (0, 7); (1, 6); (2, 5); (3, 4) ] in
  let max_use = Cst_report.Schedule_stats.max_link_use sched in
  check_int "saturated link used every round" 4 max_use;
  let util = Cst_report.Schedule_stats.link_utilization sched in
  check_true "descending order"
    (let rec desc = function
       | (a : Cst_report.Schedule_stats.link_use)
         :: (b : Cst_report.Schedule_stats.link_use) :: rest ->
           a.rounds_used >= b.rounds_used && desc (b :: rest)
       | _ -> true
     in
     desc util);
  List.iter
    (fun (u : Cst_report.Schedule_stats.link_use) ->
      check_true "use within rounds" (u.rounds_used <= 4))
    util

let test_occupancy () =
  let sched = schedule ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  let o = Cst_report.Schedule_stats.occupancy sched in
  check_int "rounds" 2 o.rounds;
  check_int "comms" 3 o.comms;
  check_int "max" 2 o.max_per_round;
  check_int "min" 1 o.min_per_round;
  check_true "mean" (Float.abs (o.mean_per_round -. 1.5) < 1e-9)

let test_occupancy_empty () =
  let sched = schedule ~n:8 [] in
  let o = Cst_report.Schedule_stats.occupancy sched in
  check_int "rounds" 0 o.rounds;
  check_true "mean zero" (o.mean_per_round = 0.0)

let test_per_round_table () =
  let sched = schedule ~n:8 [ (0, 7); (1, 2) ] in
  let t = Cst_report.Schedule_stats.per_round_table sched in
  check_int "a row per round" 2 (Cst_report.Table.row_count t)

let test_per_round_table_no_snapshots () =
  (* The live-connections column is streamed from the schedule's log:
     it equals a count taken straight from the log's round views, and
     reads 0 for a schedule derived with [~keep_configs:false], which
     retains no log. *)
  let st = set ~n:8 [ (0, 7); (1, 2) ] in
  let log = Cst.Exec_log.create () in
  let full = Padr.Csa.run_exn ~log (topo 8) st in
  let bare =
    Padr.Schedule.of_log ~keep_configs:false ~set:st ~topo:(topo 8)
      ~cycles:full.cycles log
  in
  let table live =
    let t =
      Cst_report.Table.create ~title:"per-round detail"
        ~columns:[ "round"; "comms"; "live connections" ]
    in
    Cst.Exec_log.fold_rounds log ~init:() ~f:(fun () rv ->
        Cst_report.Table.add_int_row t
          [ rv.index; List.length rv.deliveries; live rv ]);
    Cst_report.Table.render t
  in
  let connections (rv : Cst.Exec_log.round_view) =
    List.fold_left
      (fun acc (_, cfg) -> acc + Cst.Switch_config.connection_count cfg)
      0 rv.live
  in
  let render s =
    Cst_report.Table.render (Cst_report.Schedule_stats.per_round_table s)
  in
  check_true "streamed from the log" (render full = table connections);
  check_true "zero without a log" (render bare = table (fun _ -> 0));
  check_true "the counts are not all zero"
    (table connections <> table (fun _ -> 0))

let test_max_link_use_equals_width_prop () =
  let rng = Cst_util.Prng.create 404 in
  for _ = 1 to 20 do
    let s = Cst_workloads.Gen_wn.uniform rng ~n:64 ~density:0.8 in
    if Cst_comm.Comm_set.size s > 0 then begin
      let sched = Padr.schedule_exn s in
      check_int "max link use = width" sched.width
        (Cst_report.Schedule_stats.max_link_use sched)
    end
  done

let suite =
  [
    case "axis" test_axis;
    case "render simple" test_render_set_simple;
    case "render nested stacks" test_render_set_nested_stacks;
    case "render left-oriented" test_render_set_left_oriented;
    case "render disjoint share a row" test_render_disjoint_share_row;
    case "render rounds" test_render_rounds;
    case "link utilization" test_link_utilization;
    case "occupancy" test_occupancy;
    case "occupancy empty" test_occupancy_empty;
    case "per-round table" test_per_round_table;
    case "per-round table without snapshots" test_per_round_table_no_snapshots;
    case "max link use = width" test_max_link_use_equals_width_prop;
  ]
