(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.

   The paper (IPPS 2007) is theoretical and publishes no measurement
   tables; its claims are reproduced here as experiments E1-E7 plus two
   "figures" (ASCII plots), followed by Bechamel micro-benchmarks of the
   implementation itself.

   Run with:  dune exec bench/main.exe            (full output)
              dune exec bench/main.exe -- --fast  (skip micro-benchmarks) *)

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

let algos : Cst_baselines.Registry.algo list = Cst_baselines.Registry.all

let widths = [ 1; 2; 4; 8; 16; 32; 64; 128 ]
let sweep_n = 256

let set_for_width ~seed w =
  Cst_workloads.Gen_wn.with_width
    (Cst_util.Prng.create (seed + w))
    ~n:sweep_n ~width:w

(* E1 — Theorem 4: correctness at scale. *)
let e1 () =
  section "E1 - Theorem 4: end-to-end delivery correctness";
  let table =
    Cst_report.Table.create
      ~title:"random well-nested sets, full verification (10 seeds each)"
      ~columns:[ "PEs"; "sets"; "comms"; "verified"; "failed" ]
  in
  List.iter
    (fun n ->
      let comms = ref 0 and ok = ref 0 and bad = ref 0 in
      for seed = 1 to 10 do
        let rng = Cst_util.Prng.create seed in
        let density = 0.1 +. Cst_util.Prng.float rng 0.9 in
        let set = Cst_workloads.Gen_wn.uniform rng ~n ~density in
        comms := !comms + Cst_comm.Comm_set.size set;
        let sched = Padr.schedule_exn set in
        if (Padr.verify sched).ok then incr ok else incr bad
      done;
      Cst_report.Table.add_int_row table [ n; 10; !comms; !ok; !bad ])
    [ 8; 64; 512; 2048 ];
  Cst_report.Table.print table;
  Format.printf "paper claim: every communication established (zero failures)@."

(* E2 — Theorem 5: rounds = width, exactly, and only for the CSA. *)
let e2 () =
  section "E2 - Theorem 5: schedule length vs. width";
  let table =
    Cst_report.Table.create
      ~title:
        (Printf.sprintf "width-targeted sets on %d PEs: rounds per algorithm"
           sweep_n)
      ~columns:
        ("width" :: "comms"
        :: List.map (fun (a : Cst_baselines.Registry.algo) -> a.name) algos)
  in
  let topo = Cst.Topology.create ~leaves:sweep_n in
  let csa_exact = ref true in
  List.iter
    (fun w ->
      let set = set_for_width ~seed:100 w in
      let rounds =
        List.map
          (fun (a : Cst_baselines.Registry.algo) ->
            Padr.Schedule.num_rounds (a.run topo set))
          algos
      in
      (match rounds with
      | csa_rounds :: _ -> if csa_rounds <> w then csa_exact := false
      | [] -> ());
      Cst_report.Table.add_int_row table
        (w :: Cst_comm.Comm_set.size set :: rounds))
    widths;
  Cst_report.Table.print table;
  Format.printf "paper claim: CSA finishes in exactly w rounds -> %s@."
    (if !csa_exact then "reproduced" else "NOT reproduced")

(* E3 — Theorem 8: per-switch configuration cost, the headline contrast. *)
let e3 () =
  section "E3 - Theorem 8: max configuration writes per switch vs. width";
  let table =
    Cst_report.Table.create
      ~title:
        (Printf.sprintf
           "width-targeted sets on %d PEs: max writes at any single switch"
           sweep_n)
      ~columns:
        ("width"
        :: List.map (fun (a : Cst_baselines.Registry.algo) -> a.name) algos)
  in
  let topo = Cst.Topology.create ~leaves:sweep_n in
  let per_algo = Hashtbl.create 8 in
  List.iter
    (fun w ->
      let set = set_for_width ~seed:100 w in
      let cells =
        List.map
          (fun (a : Cst_baselines.Registry.algo) ->
            let s = a.run topo set in
            let v = s.power.max_writes_per_switch in
            let pts =
              Option.value ~default:[] (Hashtbl.find_opt per_algo a.name)
            in
            Hashtbl.replace per_algo a.name
              ((float_of_int w, float_of_int v) :: pts);
            v)
          algos
      in
      Cst_report.Table.add_int_row table (w :: cells))
    widths;
  Cst_report.Table.print table;
  Format.printf "@.least-squares slope of max-writes vs width:@.";
  List.iter
    (fun (a : Cst_baselines.Registry.algo) ->
      let pts = Array.of_list (Hashtbl.find per_algo a.name) in
      let fit = Cst_util.Stats.linear_fit pts in
      Format.printf "  %-10s slope=%6.3f  (%s)@." a.name fit.slope
        (if Float.abs fit.slope < 0.05 then "O(1) - constant in w"
         else "grows with w"))
    algos;
  Format.printf
    "paper claim: CSA O(1) vs Roy et al. O(w) per switch -> compare slopes@.";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) per_algo []

(* F1 — the headline figure.  The contrasted pair is selected by
   capability, not by name: the power-optimal scheduler(s) against the
   ID-based representative of the per-round O(w) family. *)
let f1 per_algo =
  section "F1 - figure: per-switch configuration writes, CSA vs ID-scheduling";
  let contrast =
    List.map
      (fun (a : Cst_baselines.Registry.algo) -> a.name)
      (Cst_baselines.Registry.capable ~power_optimal:true ())
    @ [ Cst_baselines.Registry.roy_id.name ]
  in
  let series =
    List.filter_map
      (fun name ->
        Option.map
          (fun pts ->
            { Cst_report.Ascii_plot.label = name; points = List.rev pts })
          (List.assoc_opt name per_algo))
      contrast
  in
  Cst_report.Ascii_plot.print ~title:"max writes per switch vs width"
    ~x_label:"width" ~y_label:"max writes/switch" series

(* E4 — total power units.  Columns come from the registry's capability
   view, so a new scheduler shows up here without editing the harness. *)
let e4 () =
  section "E4 - total power (connection writes) and the structural floor";
  let e4_algos = Cst_baselines.Registry.capable () in
  let table =
    Cst_report.Table.create
      ~title:
        (Printf.sprintf "total writes over the whole schedule (%d PEs)"
           sweep_n)
      ~columns:
        ("width" :: "comms" :: "floor"
        :: List.map
             (fun (a : Cst_baselines.Registry.algo) -> a.name)
             e4_algos)
  in
  let topo = Cst.Topology.create ~leaves:sweep_n in
  List.iter
    (fun w ->
      let set = set_for_width ~seed:100 w in
      let floor_ = Cst_baselines.Bounds.min_total_connects topo set in
      Cst_report.Table.add_int_row table
        (w :: Cst_comm.Comm_set.size set :: floor_
        :: List.map
             (fun (a : Cst_baselines.Registry.algo) ->
               (a.run topo set).power.total_writes)
             e4_algos))
    widths;
  Cst_report.Table.print table;
  Format.printf
    "the CSA sits near the floor (each connection set once); per-round \
     schedulers pay per participation@."

(* E5 — Theorem 5 efficiency: constant words, messages, cycles. *)
let e5 () =
  section
    "E5 - Theorem 5: locality and efficiency of the message-passing engine";
  let table =
    Cst_report.Table.create
      ~title:"engine statistics at width 8 across tree sizes"
      ~columns:
        [
          "PEs"; "rounds"; "cycles"; "cycles-model"; "messages";
          "max-msg-words"; "state-words";
        ]
  in
  List.iter
    (fun n ->
      let rng = Cst_util.Prng.create 500 in
      let set = Cst_workloads.Gen_wn.with_width rng ~n ~width:8 in
      let topo = Cst.Topology.create ~leaves:n in
      let sched, stats = Padr.Engine.run_exn topo set in
      let levels = Cst.Topology.levels topo in
      let rounds = Padr.Schedule.num_rounds sched in
      let model = 1 + levels + (rounds * (levels + 2)) in
      Cst_report.Table.add_int_row table
        [
          n; rounds; stats.cycles; model; stats.control_messages;
          stats.max_message_words; stats.state_words_per_switch;
        ])
    [ 16; 64; 256; 1024; 4096 ];
  Cst_report.Table.print table;
  Format.printf
    "message and storage sizes are constants; cycles follow \
     (log n + w(log n + 2)) - Theta(w log n)@."

(* E6 — cross-workload comparison. *)
let e6 () =
  section "E6 - all schedulers across the workload suite";
  let n = 256 in
  let table =
    Cst_report.Table.create
      ~title:(Printf.sprintf "named workloads on %d PEs" n)
      ~columns:
        [
          "workload"; "comms"; "width"; "csa rnds"; "roy rnds"; "csa wr/sw";
          "roy wr/sw"; "csa total"; "roy total";
        ]
  in
  let topo = Cst.Topology.create ~leaves:n in
  List.iter
    (fun (g : Cst_workloads.Suite.gen) ->
      let set = g.make (Cst_util.Prng.create 42) ~n in
      let csa = Padr.Csa.run_exn topo set in
      let roy = Cst_baselines.Roy_id.run topo set in
      Cst_report.Table.add_row table
        [
          g.name;
          string_of_int (Cst_comm.Comm_set.size set);
          string_of_int csa.width;
          string_of_int (Padr.Schedule.num_rounds csa);
          string_of_int (Padr.Schedule.num_rounds roy);
          string_of_int csa.power.max_writes_per_switch;
          string_of_int roy.power.max_writes_per_switch;
          string_of_int csa.power.total_writes;
          string_of_int roy.power.total_writes;
        ])
    Cst_workloads.Suite.all;
  Cst_report.Table.print table

(* E7 — ablation: lazy carry-over vs eager clearing. *)
let e7 () =
  section "E7 - ablation: PADR lazy carry-over vs eager per-round clearing";
  let table =
    Cst_report.Table.create
      ~title:
        (Printf.sprintf
           "CSA decisions, two reconfiguration disciplines (%d PEs)" sweep_n)
      ~columns:
        [
          "width"; "lazy conn"; "lazy disc"; "eager conn"; "eager disc";
          "eager/lazy";
        ]
  in
  let topo = Cst.Topology.create ~leaves:sweep_n in
  List.iter
    (fun w ->
      let set = set_for_width ~seed:100 w in
      let lz = Padr.Csa.run_exn topo set in
      let eg = Padr.Csa.run_exn ~eager_clear:true topo set in
      let levents (s : Padr.Schedule.t) =
        s.power.total_connects + s.power.total_disconnects
      in
      Cst_report.Table.add_row table
        [
          string_of_int w;
          string_of_int lz.power.total_connects;
          string_of_int lz.power.total_disconnects;
          string_of_int eg.power.total_connects;
          string_of_int eg.power.total_disconnects;
          Cst_report.Table.cell_float
            (float_of_int (levents eg) /. float_of_int (max 1 (levents lz)));
        ])
    widths;
  Cst_report.Table.print table;
  Format.printf
    "the outermost-first selection does most of the work; carry-over \
     removes the residual churn@."

(* E8 — beyond the paper: arbitrary sets as well-nested waves. *)
let e8 () =
  section "E8 - extension: arbitrary (crossing) sets as CSA waves";
  let n = 256 in
  let table =
    Cst_report.Table.create
      ~title:(Printf.sprintf "wave cover of crossing patterns (%d PEs)" n)
      ~columns:
        [
          "pattern"; "comms"; "clique-bound"; "waves"; "rounds";
          "writes"; "max wr/sw";
        ]
  in
  let rng = Cst_util.Prng.create 808 in
  let patterns =
    List.map
      (fun stage ->
        ( Printf.sprintf "butterfly s=%d" stage,
          Cst_workloads.Gen_arbitrary.butterfly ~n ~stage ))
      [ 0; 2; 4; 6 ]
    @ [
        ( "random pairs 64",
          Cst_workloads.Gen_arbitrary.random_pairs rng ~n ~pairs:64 );
        ( "bit-reversal",
          Cst_workloads.Gen_arbitrary.bit_reversal_sample rng ~n );
      ]
  in
  List.iter
    (fun (name, set) ->
      let right, left = Cst_comm.Decompose.split set in
      let bound =
        max
          (Cst_comm.Wn_cover.clique_lower_bound right)
          (Cst_comm.Wn_cover.clique_lower_bound (Cst_comm.Mirror.set left))
      in
      let w = Padr.Waves.schedule_exn set in
      assert (Padr.Waves.deliveries w = Cst_comm.Comm_set.matching set);
      Cst_report.Table.add_row table
        [
          name;
          string_of_int (Cst_comm.Comm_set.size set);
          string_of_int bound;
          string_of_int (Padr.Waves.num_waves w);
          string_of_int w.rounds;
          string_of_int w.power.total_writes;
          string_of_int w.power.max_writes_per_switch;
        ])
    patterns;
  Cst_report.Table.print table;
  Format.printf
    "the cover meets the crossing-clique lower bound on structured patterns@."

(* E9 — extension: computational algorithms under PADR (Blelloch scan). *)
let e9 () =
  section "E9 - extension: parallel prefix under PADR";
  let table =
    Cst_report.Table.create
      ~title:"Blelloch scan on the CST (sum of random arrays)"
      ~columns:
        [
          "PEs"; "supersteps"; "rounds"; "writes"; "max wr/sw"; "correct";
        ]
  in
  List.iter
    (fun n ->
      let rng = Cst_util.Prng.create (n + 5) in
      let a = Array.init n (fun _ -> Cst_util.Prng.int rng 1000) in
      let r = Cst_algos.Scan.run Cst_algos.Scan.sum a in
      let ok =
        r.inclusive
        = Cst_algos.Scan.inclusive_reference Cst_algos.Scan.sum a
      in
      Cst_report.Table.add_row table
        [
          string_of_int n;
          string_of_int r.stats.supersteps;
          string_of_int r.stats.rounds;
          string_of_int r.stats.power.total_writes;
          string_of_int r.stats.power.max_writes_per_switch;
          string_of_bool ok;
        ])
    [ 16; 64; 256; 1024 ];
  Cst_report.Table.print table;
  Format.printf
    "3 log n + 1 supersteps, one width-1 round each; per-switch writes \
     stay small because consecutive levels reuse configurations@."

(* E10 — traffic study over time (the NoC usage). *)
let e10 () =
  section "E10 - traffic trace: energy/latency over 30 phases";
  let rng = Cst_util.Prng.create 3030 in
  let trace = Cst_sim.Traffic.random_well_nested rng ~leaves:256 ~phases:30 () in
  let results = Cst_sim.Runner.compare_all trace in
  let table =
    Cst_report.Table.create
      ~title:(Format.asprintf "%a" Cst_sim.Traffic.pp trace)
      ~columns:[ "scheduler"; "rounds"; "writes"; "max wr/sw"; "vs padr" ]
  in
  let padr = List.assoc "padr" results in
  List.iter
    (fun (name, (r : Cst_sim.Runner.result)) ->
      Cst_report.Table.add_row table
        [
          name;
          string_of_int r.rounds;
          string_of_int r.power.total_writes;
          string_of_int r.power.max_writes_per_switch;
          Cst_report.Table.cell_float (Cst_sim.Runner.energy_ratio r padr);
        ])
    results;
  Cst_report.Table.print table;
  Format.printf
    "cross-phase carry-over compounds the per-schedule savings@."

(* E11 — link utilization and round occupancy of CSA schedules. *)
let e11 () =
  section "E11 - link utilization and occupancy of CSA schedules";
  let table =
    Cst_report.Table.create
      ~title:"traffic-engineering view (256 PEs)"
      ~columns:
        [
          "workload"; "width"; "rounds"; "max link use"; "mean comms/round";
          "max comms/round";
        ]
  in
  List.iter
    (fun name ->
      match Cst_workloads.Suite.find name with
      | None -> ()
      | Some g ->
          let set = g.make (Cst_util.Prng.create 42) ~n:256 in
          let sched = Padr.schedule_exn set in
          let occ = Cst_report.Schedule_stats.occupancy sched in
          Cst_report.Table.add_row table
            [
              name;
              string_of_int sched.width;
              string_of_int occ.rounds;
              string_of_int (Cst_report.Schedule_stats.max_link_use sched);
              Cst_report.Table.cell_float occ.mean_per_round;
              string_of_int occ.max_per_round;
            ])
    [ "uniform"; "dense"; "pairs"; "onion"; "comb"; "blocks" ];
  Cst_report.Table.print table;
  Format.printf
    "the busiest directed link is used in every round (max link use = \
     width): CSA schedules leave no slack on the bottleneck@."

(* F2 — scaling figure: wall-clock time of a full schedule, by the
   functional spec and by the message-passing engine on the same sets. *)
let f2 () =
  section "F2 - figure: scheduling time vs tree size (dense traffic)";
  let mean_time ~reps f =
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int reps
  in
  let points =
    List.map
      (fun n ->
        let rng = Cst_util.Prng.create 7 in
        let set = Cst_workloads.Gen_wn.uniform rng ~n ~density:1.0 in
        let topo = Cst.Topology.create ~leaves:n in
        let reps = if n <= 1024 then 5 else 2 in
        let spec =
          mean_time ~reps (fun () -> ignore (Padr.Csa.run_exn topo set))
        in
        let engine =
          mean_time ~reps (fun () -> ignore (Padr.Engine.run_exn topo set))
        in
        (n, spec, engine))
      [ 64; 128; 256; 512; 1024; 2048; 4096; 8192 ]
  in
  let table =
    Cst_report.Table.create ~title:"full CSA schedule, mean wall-clock"
      ~columns:[ "PEs"; "spec ms"; "engine ms"; "spec/engine" ]
  in
  List.iter
    (fun (n, spec, engine) ->
      Cst_report.Table.add_row table
        [
          string_of_int n;
          Cst_report.Table.cell_float (spec *. 1000.0);
          Cst_report.Table.cell_float (engine *. 1000.0);
          Cst_report.Table.cell_float (spec /. engine);
        ])
    points;
  Cst_report.Table.print table;
  let series label time =
    {
      Cst_report.Ascii_plot.label;
      points =
        List.map (fun ((n, _, _) as p) -> (float_of_int n, time p)) points;
    }
  in
  Cst_report.Ascii_plot.print ~title:"schedule time vs PEs" ~x_label:"PEs"
    ~y_label:"seconds"
    [
      series "csa" (fun (_, spec, _) -> spec);
      series "engine" (fun (_, _, engine) -> engine);
    ]

(* Bechamel micro-benchmarks. *)
let microbench () =
  section "micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let n = 1024 in
  let rng = Cst_util.Prng.create 7 in
  let set = Cst_workloads.Gen_wn.uniform rng ~n ~density:1.0 in
  let topo = Cst.Topology.create ~leaves:n in
  let onion = Cst_workloads.Gen_wn.onion ~n ~width:64 in
  let tests =
    Test.make_grouped ~name:"cst"
      [
        Test.make ~name:"phase1/1024"
          (Staged.stage (fun () -> ignore (Padr.Phase1.run topo set)));
        Test.make ~name:"width/1024"
          (Staged.stage (fun () ->
               ignore (Cst_comm.Width.width ~leaves:n set)));
        Test.make ~name:"csa-full/1024-dense"
          (Staged.stage (fun () ->
               ignore (Padr.Csa.run_exn topo set)));
        Test.make ~name:"csa-full/1024-onion64"
          (Staged.stage (fun () ->
               ignore (Padr.Csa.run_exn topo onion)));
        Test.make ~name:"roy-id/1024-onion64"
          (Staged.stage (fun () ->
               ignore (Cst_baselines.Roy_id.run topo onion)));
        Test.make ~name:"engine/1024-dense"
          (Staged.stage (fun () ->
               ignore (Padr.Engine.run_exn topo set)));
        Test.make ~name:"wellnested-check/1024"
          (Staged.stage (fun () ->
               ignore (Cst_comm.Well_nested.is_well_nested set)));
        Test.make ~name:"gen-uniform/1024"
          (Staged.stage (fun () ->
               ignore
                 (Cst_workloads.Gen_wn.uniform
                    (Cst_util.Prng.create 3)
                    ~n ~density:1.0)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Cst_report.Table.create ~title:"per-call cost"
      ~columns:[ "benchmark"; "time/run" ]
  in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Cst_report.Table.add_row table [ name; pretty ])
    rows;
  Cst_report.Table.print table

(* --json FILE: machine-readable perf baseline.

   Times the message-passing engine and every registry algorithm over a
   PEs-by-width grid of width-targeted well-nested sets and writes one
   JSON object with one result row per (kernel, pes, width) point: ns/op, schedule rounds, engine cycles, control messages and
   allocated words per op (via Gc.allocated_bytes), plus the named
   sections below.  Every row is a field list printed through
   Cst_service.Stats.fields_to_json, one object per line.  The committed
   BENCH_engine.json is the perf trajectory baseline; compare a fresh run
   against it with bench/check_regression.ml.  With --fast a small smoke
   grid is used (wired into `dune runtest`). *)

let measure ~budget_s f =
  ignore (f ());
  (* warm-up *)
  let a0 = Gc.allocated_bytes () in
  let t0 = Sys.time () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < budget_s || !reps < 3 do
    ignore (f ());
    incr reps;
    elapsed := Sys.time () -. t0
  done;
  let a1 = Gc.allocated_bytes () in
  let r = float_of_int !reps in
  ( !elapsed *. 1e9 /. r,
    (a1 -. a0) /. float_of_int (Sys.word_size / 8) /. r,
    !reps )

(* Batch-service throughput: one fixed mixed trace of jobs (well-nested
   suite workloads interleaved with arbitrary crossing sets, all dispatched
   as csa), run through Service.run at each domain count.  Wall-clock, not
   CPU time: with several domains Sys.time sums across cores. *)

let service_throughput ~fast =
  let n = if fast then 128 else 1024 in
  let job_count = if fast then 16 else 96 in
  let domain_grid = if fast then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let budget_s = if fast then 0.05 else 1.0 in
  let gens = Cst_workloads.Suite.all in
  let rng = Cst_util.Prng.create 9000 in
  let jobs =
    List.init job_count (fun i ->
        let set =
          if i mod 4 = 3 then
            Cst_workloads.Gen_arbitrary.random_pairs rng ~n
              ~pairs:(max 1 (n / 8))
          else (List.nth gens (i mod List.length gens)).make rng ~n
        in
        Cst_service.Service.job ~id:i ~algo:"csa" set)
  in
  List.map
    (fun domains ->
      let failed = ref 0 in
      let run_once () =
        let outcomes = Cst_service.Service.run ~domains jobs in
        failed :=
          List.length
            (List.filter
               (fun (o : Cst_service.Service.outcome) ->
                 Result.is_error o.result)
               outcomes)
      in
      run_once ();
      (* warm-up *)
      let t0 = Unix.gettimeofday () in
      let reps = ref 0 in
      let elapsed = ref 0.0 in
      while !elapsed < budget_s || !reps < 2 do
        run_once ();
        incr reps;
        elapsed := Unix.gettimeofday () -. t0
      done;
      let jobs_per_sec =
        float_of_int (job_count * !reps) /. Float.max !elapsed 1e-9
      in
      Cst_service.Stats.
        [
          ("domains", Int domains);
          ("pes", Int n);
          ("jobs", Int job_count);
          ("jobs_per_sec", Float jobs_per_sec);
          ("failed", Int !failed);
          ("reps", Int !reps);
        ])
    domain_grid

(* Streaming scheduler: open-loop arrival replay.  Each row replays one
   arrival trace (Poisson or bursty ON/OFF) against one admission policy
   in wall time — the driver sleeps until the next arrival, ticking the
   stream so time-based policies can commit between submissions — and
   records sojourn percentiles, delivered throughput and the power
   split: per-job connects+writes (identical under every policy — the
   jobs are never rewritten) versus the reconfiguration charge
   recon_delta x epochs, which is what a coalescing policy saves.  The
   validate gate in check_regression.ml asserts the delta policy beats
   immediate on total power on the bursty trace at domains:1: immediate
   pays one reconfiguration per job, delta one per burst. *)

let streaming_bench ~fast =
  let pes_grid = if fast then [ 128 ] else [ 1024; 4096 ] in
  let domain_grid = if fast then [ 1 ] else [ 1; 2 ] in
  let job_count = if fast then 12 else 48 in
  (* mean inter-arrival gap in seconds; a trace spans ~ job_count x g *)
  let g = if fast then 0.012 else 0.02 in
  let gens = Cst_workloads.Suite.all in
  let make_jobs n =
    let rng = Cst_util.Prng.create 9100 in
    List.init job_count (fun i ->
        let set =
          if i mod 4 = 3 then
            Cst_workloads.Gen_arbitrary.random_pairs rng ~n
              ~pairs:(max 1 (n / 8))
          else (List.nth gens (i mod List.length gens)).make rng ~n
        in
        Cst_service.Service.job ~id:i ~algo:"csa" set)
  in
  let processes =
    [
      ( "poisson",
        fun () ->
          Cst_workloads.Arrivals.poisson
            (Cst_util.Prng.create 4711)
            ~rate:(1.0 /. g) ~jobs:job_count );
      (* within=0: burst members arrive back-to-back, the case epoch
         coalescing exists for *)
      ( "bursty",
        fun () ->
          Cst_workloads.Arrivals.bursty
            (Cst_util.Prng.create 4711)
            ~burst:6 ~gap:(6.0 *. g) ~jobs:job_count () );
    ]
  in
  let policies =
    [
      Cst_service.Admission.Immediate;
      Cst_service.Admission.Quantum (3.0 *. g);
      (* delta = 2g: a burst's accumulated wait crosses it within a few
         ms of the OFF gap opening, well before the next burst *)
      Cst_service.Admission.Delta_threshold
        { delta = 2.0 *. g; max_width = None };
    ]
  in
  let replay ~domains ~policy trace jobs =
    let stream = Cst_service.Stream.create ~domains ~policy () in
    let t0 = Unix.gettimeofday () in
    List.iteri
      (fun i job ->
        let target = t0 +. trace.Cst_workloads.Arrivals.times.(i) in
        let rec wait () =
          let now = Unix.gettimeofday () in
          if now < target then begin
            Cst_service.Stream.tick stream;
            Unix.sleepf (Float.min 0.001 (target -. now));
            wait ()
          end
        in
        wait ();
        Cst_service.Stream.submit stream job)
      jobs;
    let outs = Cst_service.Stream.drain stream in
    let dt = Unix.gettimeofday () -. t0 in
    let s = Cst_service.Stream.stats stream in
    Cst_service.Stream.shutdown stream;
    assert (List.length outs = List.length jobs);
    (s, dt)
  in
  List.concat_map
    (fun n ->
      let jobs = make_jobs n in
      List.concat_map
        (fun (pname, mk_trace) ->
          List.concat_map
            (fun domains ->
              List.map
                (fun policy ->
                  let s, dt = replay ~domains ~policy (mk_trace ()) jobs in
                  Cst_service.Stats.
                    [
                      ("process", String pname);
                      (* the policy family: immediate | quantum | delta *)
                      ("policy", String (Cst_service.Admission.name policy));
                      ( "policy_spec",
                        String (Cst_service.Admission.to_string policy) );
                      ("domains", Int domains);
                      ("pes", Int n);
                      ("jobs", Int job_count);
                      ("p50_ms", Float (1000.0 *. s.sojourn_p50));
                      ("p99_ms", Float (1000.0 *. s.sojourn_p99));
                      ( "jobs_per_sec",
                        Float (float_of_int job_count /. Float.max dt 1e-9) );
                      ("epochs", Int s.epochs);
                      ("job_power", Int (s.job_connects + s.job_writes));
                      ("recon_power", Float s.recon_power);
                      ("total_power", Float (Cst_service.Stream.total_power s));
                    ])
                policies)
            domain_grid)
        processes)
    pes_grid

(* Execution-log overhead: the raw append rate on the hot path (the
   connect/deliver mix every producer emits), and the footprint of a
   real engine run — events recorded and bytes per event — at 2048 PEs.
   The append rate is gated by check_regression like any other kernel:
   the log sits on every scheduler's inner loop, so a slow append taxes
   every row in this file at once. *)

let log_overhead ~fast =
  let n = if fast then 128 else 2048 in
  let budget_s = if fast then 0.02 else 0.25 in
  let appends = 65_536 in
  let ns, _alloc, reps =
    measure ~budget_s (fun () ->
        (* capacity 64 so the doubling growth path is part of the cost *)
        let log = Cst.Exec_log.create ~capacity:64 () in
        for i = 0 to (appends / 2) - 1 do
          Cst.Exec_log.connect log ~node:(i land 1023) ~out_port:Cst.Side.P
            ~in_port:Cst.Side.L;
          Cst.Exec_log.deliver log ~src:(i land 1023)
            ~dst:((i + 1) land 1023)
        done)
  in
  let topo = Cst.Topology.create ~leaves:n in
  let rng = Cst_util.Prng.create 4242 in
  let set = Cst_workloads.Gen_wn.with_width rng ~n ~width:(min 64 (n / 2)) in
  let log = Cst.Exec_log.create () in
  ignore (Padr.Engine.run_exn ~log topo set);
  let events = Cst.Exec_log.length log in
  let bytes = float_of_int (Cst.Exec_log.bytes_used log) in
  Cst_service.Stats.
    [
      ("pes", Int n);
      ("events", Int events);
      ("ns_per_append", Float (ns /. float_of_int appends));
      ("bytes_per_event", Float (bytes /. float_of_int (max 1 events)));
      ("reps", Int reps);
    ]

(* Plan cache: the compile-once/replay-many contrast.  "Compile" is a
   full engine run frozen into a plan ({!Padr.Plan.compile}); "replay"
   rebases the frozen log onto an aligned translate and rebuilds the
   schedule from it — no scheduling, no simulation.  The trace half
   measures the cache hit rate the batch service achieves on a
   90%-repetitive stream: a few base structures recurring under aligned
   translations, with a fresh unique structure every tenth job. *)

let plan_cache_bench ~fast =
  let n = if fast then 128 else 1024 in
  let budget_s = if fast then 0.02 else 0.25 in
  let topo = Cst.Topology.create ~leaves:n in
  (* The pattern lives on the left half of the tree so the replay
     placement (the right half) genuinely rebases every event. *)
  let half = n / 2 in
  let rng = Cst_util.Prng.create 2718 in
  let base_set =
    Cst_comm.Comm_set.create_exn ~n
      (Array.to_list
         (Cst_comm.Comm_set.comms
            (Cst_workloads.Gen_wn.with_width rng ~n:half
               ~width:(min 64 (half / 2)))))
  in
  let compile () =
    Result.get_ok (Padr.Plan.compile ~producer:Padr.Plan.Engine topo base_set)
  in
  let compile_ns, _, reps =
    measure ~budget_s (fun () -> ignore (compile ()))
  in
  let plan = compile () in
  let shifted = Cst_workloads.Gen_wn.translate ~by:half base_set in
  let replay_ns, _, _ =
    measure ~budget_s (fun () ->
        ignore (Padr.Plan.replay plan topo shifted))
  in
  (* The repetitive trace, through the service's own cache. *)
  let trace_jobs = if fast then 40 else 200 in
  let block = n / 8 in
  let base_count = if fast then 2 else 4 in
  let bases =
    Array.init base_count (fun i ->
        Cst_comm.Comm_set.create_exn ~n
          (Array.to_list
             (Cst_comm.Comm_set.comms
                (Cst_workloads.Gen_wn.uniform
                   (Cst_util.Prng.create (100 + i))
                   ~n:block ~density:0.7))))
  in
  let trng = Cst_util.Prng.create 3141 in
  let jobs =
    List.init trace_jobs (fun i ->
        let set =
          if i mod 10 = 9 then
            Cst_workloads.Gen_wn.uniform trng ~n ~density:0.3
          else
            Cst_workloads.Gen_wn.translate
              ~by:(block * Cst_util.Prng.int trng 8)
              bases.(Cst_util.Prng.int trng base_count)
        in
        Cst_service.Service.job ~id:i ~algo:"csa" set)
  in
  let pool = Cst_service.Service.create ~domains:1 () in
  let hits, misses =
    Fun.protect
      ~finally:(fun () -> Cst_service.Service.shutdown pool)
      (fun () ->
        List.iter (Cst_service.Service.submit pool) jobs;
        ignore (Cst_service.Service.drain pool);
        match Cst_service.Service.cache_stats pool with
        | Some s -> (s.hits, s.misses)
        | None -> (0, 0))
  in
  Cst_service.Stats.
    [
      ("pes", Int n);
      ("compile_ns", Float compile_ns);
      ("replay_ns", Float replay_ns);
      ("speedup", Float (compile_ns /. Float.max replay_ns 1e-9));
      ("trace_jobs", Int trace_jobs);
      ("hits", Int hits);
      ("misses", Int misses);
      ( "hit_rate",
        Float (float_of_int hits /. float_of_int (max 1 (hits + misses))) );
      ("reps", Int reps);
    ]

(* Segment-parallel engine: a tiled workload — [copies] independent
   translates of one dense tile, so Decompose yields many top-level
   blocks.  The gated quantity is the decomposition + merge OVERHEAD at
   domains:1 (this container is single-core, so parallel speedup is not
   measurable here; see EXPERIMENTS.md "Single-core baseline"); the
   multi-domain grid is recorded for machines that can use it.  The two
   correctness certificates ride along in the baseline: the merged log
   is digest-identical to the sequential engine's, and the per-block
   config/delivery event counts sum exactly to the sequential run's
   (no work is duplicated or dropped by the split). *)

let par_engine_bench ~fast =
  let n = if fast then 256 else 1024 in
  let copies = 8 in
  let block = n / copies in
  let budget_s = if fast then 0.02 else 0.25 in
  let set =
    Cst_workloads.Gen_wn.tile ~copies
      (Cst_workloads.Gen_wn.uniform
         (Cst_util.Prng.create 1717)
         ~n:block ~density:1.0)
  in
  let topo = Cst.Topology.create ~leaves:n in
  let blocks = Cst_comm.Decompose.blocks set in
  let seq_log = Cst.Exec_log.create () in
  ignore (Padr.Engine.run_exn ~log:seq_log topo set);
  let par_log = Cst.Exec_log.create () in
  ignore
    (Result.get_ok (Padr.Par_engine.run ~domains:1 ~log:par_log topo set));
  let digest_match =
    Cst.Exec_log.digest par_log = Cst.Exec_log.digest seq_log
  in
  let work log =
    Cst.Exec_log.fold log ~init:0 ~f:(fun acc e ->
        match e with
        | Cst.Exec_log.Connect _ | Cst.Exec_log.Disconnect _
        | Cst.Exec_log.Write_config _ | Cst.Exec_log.Deliver _ ->
            acc + 1
        | _ -> acc)
  in
  let block_work =
    List.fold_left
      (fun acc b ->
        acc + work (Result.get_ok (Padr.Par_engine.run_block topo b)))
      0 blocks
  in
  let work_conserved = block_work = work seq_log in
  let seq_ns, _, reps =
    measure ~budget_s (fun () ->
        Padr.Engine.run_exn topo set)
  in
  let par_ns domains =
    let ns, _, _ =
      measure ~budget_s (fun () ->
          Result.get_ok
            (Padr.Par_engine.run ~domains topo set))
    in
    ns
  in
  let grid = List.map (fun d -> (d, par_ns d)) [ 1; 2; 4; 8 ] in
  let par_d1_ns = List.assoc 1 grid in
  Cst_service.Stats.
    [
      ("pes", Int n);
      ("blocks", Int (List.length blocks));
      ("seq_ns", Float seq_ns);
      ("par_d1_ns", Float par_d1_ns);
      ("overhead", Float (par_d1_ns /. Float.max seq_ns 1e-9));
      ("digest_match", Bool digest_match);
      ("work_conserved", Bool work_conserved);
      ("reps", Int reps);
      ( "grid",
        Rows
          (List.map (fun (d, ns) -> [ ("domains", Int d); ("ns", Float ns) ])
             grid) );
    ]

(* Plan store: cold-start time-to-first-scheduled-job.  "Recompile" is
   what a fresh process without a store pays — a full engine compile of
   the set.  "Warm" is the same first job served from a warm disk store:
   open the directory, fault the plan in (read + digest-verified
   decode) and replay it.  The codec round trip (encode + decode of the
   whole plan) is also timed per event, and the correctness certificate
   rides along: the decoded plan's replay digest must equal a fresh
   run's.  The speedup is gated by check_regression on full-size runs
   (the smoke grid's sets are too small for stable file-system
   timings). *)

let plan_store_bench ~fast =
  let sizes = if fast then [ 128 ] else [ 1024; 4096; 16384 ] in
  let budget_s = if fast then 0.02 else 0.25 in
  List.map
    (fun n ->
      let topo = Cst.Topology.create ~leaves:n in
      let rng = Cst_util.Prng.create 5151 in
      (* Width 256 on the full-size trees: both paths pay an O(leaves)
         schedule-rebuild term, so the set must carry enough scheduling
         work for the compile/replay gap to be the thing measured. *)
      let set =
        Cst_workloads.Gen_wn.with_width rng ~n ~width:(min 256 (n / 2))
      in
      let compile () =
        Result.get_ok (Padr.Plan.compile ~producer:Padr.Plan.Engine topo set)
      in
      let recompile_ns, _, reps =
        measure ~budget_s (fun () -> ignore (compile ()))
      in
      let plan = compile () in
      let events = Cst.Exec_log.length plan.log in
      let dir =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "cst-bench-store-%d-%d" (Unix.getpid ()) n)
      in
      let st = Cst_service.Plan_store.open_dir dir in
      Cst_service.Plan_store.store st ~algo:"csa" ~engine:true plan;
      let canon = (Cst.Canon.place set).canon in
      let warm_ns, _, _ =
        measure ~budget_s (fun () ->
            (* the whole cold path: index the directory, fault the plan
               in (read + verify + decode), replay to a schedule *)
            let st = Cst_service.Plan_store.open_dir dir in
            match
              Cst_service.Plan_store.find st ~algo:"csa" ~engine:true
                ~shape:(Cst.Topology.shape topo) ~base:0 ~canon
            with
            | Some p -> ignore (Padr.Plan.replay p topo set)
            | None -> failwith "plan store bench: warm store missed")
      in
      let codec_ns, _, _ =
        measure ~budget_s (fun () ->
            match Padr.Plan.Codec.decode (Padr.Plan.Codec.encode plan) with
            | Ok _ -> ()
            | Error _ -> failwith "plan store bench: round trip failed")
      in
      let fresh_log = Cst.Exec_log.create () in
      ignore (Padr.Engine.run_exn ~log:fresh_log topo set);
      let digest_ok =
        match Padr.Plan.Codec.decode (Padr.Plan.Codec.encode plan) with
        | Error _ -> false
        | Ok decoded ->
            let r = Padr.Plan.replay decoded topo set in
            Cst.Exec_log.digest r.log = Cst.Exec_log.digest fresh_log
      in
      (* leave no bench litter behind *)
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      Cst_service.Stats.
        [
          ("pes", Int n);
          ("events", Int events);
          ("recompile_ns", Float recompile_ns);
          ("warm_ns", Float warm_ns);
          ("speedup", Float (recompile_ns /. Float.max warm_ns 1e-9));
          ( "codec_ns_per_event",
            Float (codec_ns /. float_of_int (max 1 events)) );
          ("digest_ok", Bool digest_ok);
          ("reps", Int reps);
        ])
    sizes

(* Generalized topologies: one nested trace (16 centre-straddling pairs
   on 256 PEs, binary width 16) scheduled on the classic binary tree, a
   4-ary tree and two capacity-weighted two-layer fat trees.  The fat
   tree with uplink capacity c must finish in ceil(16/c) rounds —
   Theorem 5 divided by the oversubscription ratio — which is the gate
   check_regression holds the rows to. *)

let topology_bench ~fast =
  let budget_s = if fast then 0.02 else 0.25 in
  let n = 256 in
  let set = Cst_workloads.Gen_wn.onion ~n ~width:16 in
  let fat caps =
    match
      Cst.Shape.fat_tree ~level_sizes:[| n; 16 |]
        ~capacities:[| caps; caps |]
    with
    | Ok s -> s
    | Error _ -> assert false
  in
  let shapes =
    [
      Cst.Shape.binary ~leaves:n;
      Cst.Shape.kary ~k:4 ~leaves:n;
      fat 2;
      fat 4;
    ]
  in
  List.map
    (fun shape ->
      let topo = Cst.Topology.of_shape shape in
      let width = Cst.Compat.width topo set in
      let sched = Padr.Csa.run_exn topo set in
      let ns, _, reps =
        measure ~budget_s (fun () ->
            ignore (Padr.Csa.run_exn topo set))
      in
      Cst_service.Stats.
        [
          ("shape", String (Cst.Shape.to_string shape));
          ("pes", Int n);
          (* leaf-tier uplink capacity (1 on unit-capacity trees) *)
          ("cap", Int (Cst.Shape.cap_at shape ~depth:(Cst.Shape.levels shape)));
          (* capacity-weighted width of the trace on this shape *)
          ("width", Int width);
          ("rounds", Int (Padr.Schedule.num_rounds sched));
          ("connects", Int sched.power.total_connects);
          ("writes", Int sched.power.total_writes);
          ("ns_per_op", Float ns);
          ("reps", Int reps);
        ])
    shapes

(* Virtual-clock streaming replay: the same Stream machinery as
   [streaming_bench], but time is a mutable atomic the driver advances
   to each arrival stamp instead of sleeping through real gaps.  The
   wall-clock cost is then pure scheduler work — submission, width
   math, policy evaluation, dispatch — so a 10^5-job trace replays in
   seconds and the sustained jobs/sec is a meaningful throughput
   number, which the open-loop rows (dominated by sleepf) never were.
   The rows carry no sojourn percentiles: virtual sojourns are not
   comparable to wall-clock ones. *)

let streaming_virtual_bench ~fast =
  let n = 32 in
  let jobs = if fast then 2_000 else 100_000 in
  let domains = 1 in
  let g = 0.02 in
  let gens = Cst_workloads.Suite.all in
  (* a small cycled set pool: the trace exercises the scheduler, not the
     generators, and repeats keep the plan cache on its steady-state
     hit path like a real recurring workload *)
  let sets =
    let rng = Cst_util.Prng.create 9200 in
    Array.init 16 (fun i ->
        if i mod 4 = 3 then
          Cst_workloads.Gen_arbitrary.random_pairs rng ~n
            ~pairs:(max 1 (n / 8))
        else (List.nth gens (i mod List.length gens)).make rng ~n)
  in
  let trace =
    Cst_workloads.Arrivals.poisson
      (Cst_util.Prng.create 4711)
      ~rate:(1.0 /. g) ~jobs
  in
  let policies =
    [
      Cst_service.Admission.Immediate;
      Cst_service.Admission.Quantum (3.0 *. g);
      Cst_service.Admission.Delta_threshold
        { delta = 2.0 *. g; max_width = None };
    ]
  in
  List.map
    (fun policy ->
      (* workers read the clock for completion stamps, so it must be
         thread-safe — hence an Atomic, not a ref *)
      let vnow = Atomic.make 0.0 in
      let stream =
        Cst_service.Stream.create ~domains ~policy
          ~clock:(fun () -> Atomic.get vnow)
          ()
      in
      let t0 = Unix.gettimeofday () in
      for i = 0 to jobs - 1 do
        Atomic.set vnow trace.Cst_workloads.Arrivals.times.(i);
        Cst_service.Stream.tick stream;
        Cst_service.Stream.submit stream
          (Cst_service.Service.job ~id:i ~algo:"csa" sets.(i mod 16))
      done;
      Atomic.set vnow
        (trace.Cst_workloads.Arrivals.times.(jobs - 1) +. (10.0 *. g));
      Cst_service.Stream.tick stream;
      let outs = Cst_service.Stream.drain stream in
      let dt = Unix.gettimeofday () -. t0 in
      let s = Cst_service.Stream.stats stream in
      Cst_service.Stream.shutdown stream;
      assert (List.length outs = jobs);
      Cst_service.Stats.
        [
          ("process", String "poisson");
          ("policy", String (Cst_service.Admission.name policy));
          ("policy_spec", String (Cst_service.Admission.to_string policy));
          ("domains", Int domains);
          ("pes", Int n);
          ("jobs", Int jobs);
          ("epochs", Int s.epochs);
          ("wall_s", Float dt);
          ("jobs_per_sec", Float (float_of_int jobs /. Float.max dt 1e-9));
        ])
    policies

(* Demand-aware placement: the three canonical recurring traces
   (Cst_workloads.Traces) under identity, static-optimized and
   self-adjusting PE->leaf mappings.  Widths are summed over the trace
   (by Theorem 5 that sum is the total round count the circuit spends);
   rounds and the power ledger are read back through the service so the
   row also certifies the wiring: a job carrying the placement must be
   byte-identical (outcome_to_string, digest included) to the permuted
   set submitted directly.  check_regression holds the committed gates:
   >= 1.5x width reduction and a power win on the skewed trace, zero
   regression on uniform, and the self-adjusting layer beating the static
   compromise on the phase-changing trace. *)

let placement_bench ~fast =
  let module P = Cst_placement in
  let module Svc = Cst_service.Service in
  let n = if fast then 64 else 256 in
  let jobs = if fast then 12 else 32 in
  let traces =
    [
      ( "skewed",
        Cst_workloads.Traces.skewed (Cst_util.Prng.create 7001) ~n ~jobs );
      ( "uniform",
        Cst_workloads.Traces.uniform_recurring
          (Cst_util.Prng.create 7002)
          ~n ~jobs );
      ( "phase",
        Cst_workloads.Traces.phase_shift (Cst_util.Prng.create 7003) ~n ~jobs
      );
    ]
  in
  let ok_exn = function
    | Ok (r : Svc.job_result) -> r
    | Error e ->
        Format.kasprintf failwith "placement bench job failed: %a"
          Svc.pp_error e
  in
  List.map
    (fun (name, sets) ->
      let profile = P.Profile.create ~n in
      List.iter (fun s -> P.Profile.add_set profile s) sets;
      let static = P.Optimize.optimize profile in
      let identity = P.Mapping.identity ~n:(P.Mapping.n static) in
      (* low remap cost / fast decay: the phase trace is short, the
         layer must turn around within a few jobs of the shift *)
      let auto =
        P.Auto.create ~remap_cost:8.0 ~decay:0.85 ~reopt_every:2 ~n ()
      in
      let wi = ref 0 and ws = ref 0 and wa = ref 0 in
      List.iter
        (fun s ->
          wi := !wi + P.Optimize.width_of_set identity s;
          ws := !ws + P.Optimize.width_of_set static s;
          (* stream order: fold the arrival into the profile, advance
             the mapping at the epoch boundary, then run under it *)
          P.Auto.observe auto s;
          ignore (P.Auto.maybe_remap auto);
          wa := !wa + P.Optimize.width_of_set (P.Auto.installed auto) s)
        sets;
      let ri = ref 0 and rs = ref 0 in
      let pi = ref 0 and ps = ref 0 in
      let digest_ok = ref true in
      List.iteri
        (fun i s ->
          let run job = ok_exn (Svc.run_job job) in
          let base = run (Svc.job ~id:i ~algo:"csa" s) in
          let placed = run (Svc.job ~placement:static ~id:i ~algo:"csa" s) in
          let direct =
            run (Svc.job ~id:i ~algo:"csa" (P.Mapping.apply_set static s))
          in
          ri := !ri + base.rounds;
          rs := !rs + placed.rounds;
          pi := !pi + base.power.total_connects + base.power.total_writes;
          ps := !ps + placed.power.total_connects + placed.power.total_writes;
          if
            Svc.outcome_to_string { Svc.job_id = i; result = Ok placed }
            <> Svc.outcome_to_string { Svc.job_id = i; result = Ok direct }
          then digest_ok := false)
        sets;
      Cst_service.Stats.
        [
          ("trace", String name);
          ("pes", Int n);
          ("jobs", Int jobs);
          ("width_identity", Int !wi);
          ("width_static", Int !ws);
          ("width_auto", Int !wa);
          ("ratio", Float (float_of_int !wi /. float_of_int (max 1 !ws)));
          ("rounds_identity", Int !ri);
          ("rounds_static", Int !rs);
          (* connects + writes, summed over the trace *)
          ("power_identity", Int !pi);
          ("power_static", Int !ps);
          (* remaps the self-adjusting layer fired *)
          ("remaps", Int (P.Auto.remaps auto));
          ("digest_ok", Bool !digest_ok);
        ])
    traces

let bench_json ~fast file =
  (* The named sections are measured first, on the young process, in a
     fixed order with a full major collection between them: the engine
     grid's 65536-PE runs leave the major heap in a state that OCaml 5.1
     (no heap compaction) never recovers from, inflating the small
     allocation-bound measurements (plan replay, segment overhead) by
     2-3x depending on section order.  Measured up front, each section's
     numbers match a standalone run of the same code. *)
  let section () = Gc.compact () in
  let lg = log_overhead ~fast in
  section ();
  let pc = plan_cache_bench ~fast in
  section ();
  let pe = par_engine_bench ~fast in
  section ();
  let ps = plan_store_bench ~fast in
  section ();
  let srv = service_throughput ~fast in
  section ();
  let stm = streaming_bench ~fast in
  section ();
  let sv = streaming_virtual_bench ~fast in
  section ();
  let pl = placement_bench ~fast in
  section ();
  let topo_rows = topology_bench ~fast in
  let grid_pes = if fast then [ 64; 256 ] else [ 256; 2048; 16384; 65536 ] in
  let grid_widths = if fast then [ 1; 8 ] else [ 1; 8; 64 ] in
  (* The per-round baselines are only timed on the smaller trees: their
     full-tree scans at 2^16 PEs are exactly the cost this benchmark
     exists to avoid paying. *)
  let registry_cap = 2048 in
  let budget_s = if fast then 0.02 else 0.25 in
  let rows = ref [] in
  let add row = rows := row :: !rows in
  List.iter
    (fun n ->
      let topo = Cst.Topology.create ~leaves:n in
      List.iter
        (fun w ->
          if 2 * w <= n then begin
            let rng = Cst_util.Prng.create (1000 + n + w) in
            let set = Cst_workloads.Gen_wn.with_width rng ~n ~width:w in
            let sched, stats = Padr.Engine.run_exn topo set in
            let engine_rounds = Padr.Schedule.num_rounds sched in
            let time kernel ?(rounds = engine_rounds) ?(cycles = stats.cycles)
                ?(msgs = 0) f =
              let ns, alloc, reps = measure ~budget_s f in
              add
                Cst_service.Stats.
                  [
                    ("kernel", String kernel);
                    ("pes", Int n);
                    ("width", Int w);
                    ("ns_per_op", Float ns);
                    ("rounds", Int rounds);
                    ("cycles", Int cycles);
                    ("control_messages", Int msgs);
                    ("alloc_words", Float alloc);
                    ("reps", Int reps);
                  ]
            in
            time "engine" ~msgs:stats.control_messages (fun () ->
                Padr.Engine.run_exn topo set);
            if n <= registry_cap then
              List.iter
                (fun (a : Cst_baselines.Registry.algo) ->
                  let s = a.run topo set in
                  time a.name ~rounds:(Padr.Schedule.num_rounds s)
                    ~cycles:s.cycles (fun () -> a.run topo set))
                algos
          end)
        grid_widths)
    grid_pes;
  (* Host metadata: the regression gates that compare multi-domain
     scaling are only meaningful when the producing machine had the
     cores to scale on, and cross-host comparisons of absolute ns are
     noise.  [nproc] is what the service's default domain count sees;
     [host] tags each section so a partially regenerated file is
     detectable. *)
  let nproc = Domain.recommended_domain_count () in
  let host = try Unix.gethostname () with Unix.Unix_error _ -> "unknown" in
  let rows = List.rev !rows in
  let ints l = "[" ^ String.concat ", " (List.map string_of_int l) ^ "]" in
  let tagged r =
    Cst_service.Stats.(fields_to_json (("host", String host) :: r))
  in
  let array row_json rs =
    "[\n" ^ String.concat ",\n" (List.map (fun r -> "    " ^ row_json r) rs)
    ^ "\n  ]"
  in
  let rows_json = array Cst_service.Stats.fields_to_json in
  let top =
    [
      ("schema", "\"cst-padr/bench-engine/v3\"");
      ("fast", string_of_bool fast);
      ("nproc", string_of_int nproc);
      ("host", Printf.sprintf "%S" host);
      ("pes_grid", ints grid_pes);
      ("width_grid", ints grid_widths);
      ("registry_cap", string_of_int registry_cap);
      ("service_throughput", rows_json srv);
      ("streaming", rows_json stm);
      ("streaming_virtual", rows_json sv);
      ("placement", rows_json pl);
      ("log_overhead", tagged lg);
      ("plan_cache", tagged pc);
      ("par_engine", tagged pe);
      ("plan_store", array tagged ps);
      ("topology", rows_json topo_rows);
      ("results", rows_json rows);
    ]
  in
  let oc = open_out file in
  Printf.fprintf oc "{\n%s\n}\n"
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) top));
  close_out oc;
  Format.printf "wrote %d benchmark rows to %s@." (List.length rows) file

let run_experiments ~fast =
  Format.printf
    "Reproduction harness: El-Boghdadi, \"Power-Aware Routing for \
     Well-Nested Communications On The Circuit Switched Tree\" (IPPS 2007)@.";
  e1 ();
  e2 ();
  let per_algo = e3 () in
  f1 per_algo;
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  f2 ();
  if not fast then microbench ();
  Format.printf "@.done.@."

let () =
  let fast = Array.exists (( = ) "--fast") Sys.argv in
  let json_file =
    let rec find i =
      if i >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--json" && i + 1 < Array.length Sys.argv then
        Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  match json_file with
  | Some file -> bench_json ~fast file
  | None -> run_experiments ~fast
