(* cstool — command-line front end for the CST/PADR library.

   Subcommands:
     gen    generate a workload and print/save it as a comm-set file
     info   validate a set and print its statistics
     route  schedule a set with a chosen algorithm, optionally verifying
     batch  run many generated jobs through the multicore batch service
     log    run a scheduler and dump its canonical execution log
     sweep  width sweep comparing algorithms (the E3 experiment, ad hoc)
     plan   compile, import and list persistent plan files (plan store)
     place  profile a recurring traffic and emit a width-minimizing
            PE-to-leaf placement mapping (apply with --place)
     serve  long-running streaming scheduler on stdin/stdout
            (SUBMIT / TICK / DRAIN / STATS / QUIT line protocol)

   Scheduling goes through Cst_service.Service — cstool is a thin client:
   it builds jobs, lets the service dispatch on registry capabilities and
   renders the outcomes.  route/batch/serve accept a uniform
   --engine spec/mp/segmented. *)

open Cmdliner
module Service = Cst_service.Service

(* A file's contents, or an error naming it: a missing file, a
   directory or a read failure is a bad input, not a crash. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error e ->
      (* open errors name the file already; read errors do not *)
      Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)

let load_with of_string path =
  Result.bind (read_file path) (fun text ->
      Result.map_error (Printf.sprintf "%s: %s" path) (of_string text))

let load_set = load_with Cst_comm.Comm_set.of_string
let load_mapping = load_with Cst_placement.Mapping.of_string

(* Generators build the whole O(n) set, so [n] is checked against the
   trees a job may run on before any of it is built; a generator that
   still rejects its arguments reports why instead of raising. *)
let generate ~what ~n make =
  let reject why = Error (Printf.sprintf "%s rejects n=%d: %s" what n why) in
  if n < 2 then reject "trees have at least 2 leaves"
  else if n > Service.max_leaves then
    reject (Printf.sprintf "trees have at most %d leaves" Service.max_leaves)
  else try Ok (make ()) with Invalid_argument m -> reject m

let gen_set ~workload ~n ~seed =
  match Cst_workloads.Suite.find workload with
  | None ->
      Error
        (Printf.sprintf "unknown workload %S (known: %s)" workload
           (String.concat ", " Cst_workloads.Suite.names))
  | Some g ->
      generate ~what:("workload " ^ workload) ~n (fun () ->
          g.make (Cst_util.Prng.create seed) ~n)

let obtain_set file workload n seed =
  match (file, workload) with
  | Some path, None -> load_set path
  | None, Some w -> gen_set ~workload:w ~n ~seed
  | None, None -> Error "provide either a FILE or --workload"
  | Some _, Some _ -> Error "provide either a FILE or --workload, not both"

(* common args *)
let file_arg =
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Communication-set file (see cstool gen).")

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Generate the workload instead of reading a file. \
                           One of: %s."
             (String.concat ", " Cst_workloads.Suite.names)))

let n_arg =
  Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc:"Number of PEs for generated workloads.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let exit_err msg =
  Format.eprintf "cstool: %s@." msg;
  exit 1

(* Every command that takes --store opens it here: a path that names a
   file, lies under one, or cannot be created or read exits 1 with one
   message naming it. *)
let open_store dir =
  match Cst_service.Plan_store.open_dir dir with
  | st -> st
  | exception Sys_error m -> exit_err m
  | exception Unix.Unix_error (e, _, _) ->
      exit_err (Printf.sprintf "%s: %s" dir (Unix.error_message e))

let place_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "place" ] ~docv:"FILE"
        ~doc:
          "Apply the PE-to-leaf placement mapping in $(docv) (produced \
           by $(b,cstool place)) to every job before scheduling: sets \
           are rewritten through the permutation, so widths, rounds and \
           digests are those of the placed sets.")

let obtain_mapping place =
  match place with
  | None -> None
  | Some path -> (
      match load_mapping path with
      | Ok m -> Some m
      | Error e -> exit_err e)

(* One engine spelling across route/batch/serve: [--engine] and the
   serve protocol's [engine=] both read this table. *)
let engines =
  [
    ("spec", Service.Spec);
    ("mp", Service.Message_passing);
    ("segmented", Service.Segmented);
  ]

let engine_conv = Arg.enum engines

let engine_arg =
  Arg.(
    value
    & opt (some engine_conv) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,spec) (functional scheduler, default), \
           $(b,mp) (message-passing engine), $(b,segmented) \
           (segment-parallel engine).")

(* One tree-shape spelling across route/dot/log/serve. *)
let shape_conv =
  let parse s =
    match Cst.Shape.of_string s with
    | Ok sh -> Ok sh
    | Error e -> Error (`Msg e)
  in
  Arg.conv ~docv:"SHAPE" (parse, Cst.Shape.pp)

let shape_arg =
  Arg.(
    value
    & opt (some shape_conv) None
    & info [ "shape" ] ~docv:"SHAPE"
        ~doc:
          "Tree to schedule on: $(b,bin:N) (classic complete binary \
           tree, the default), $(b,kary:K:N) (complete K-ary tree) or \
           $(b,fat:L0,L1[:c0,c1]) (level sizes leaf-to-root, root \
           implied, with per-tier uplink capacities).  Only \
           shape-generic algorithms accept non-binary shapes.")

(* gen *)
let gen_cmd =
  let run workload n seed out =
    match gen_set ~workload ~n ~seed with
    | Error e -> exit_err e
    | Ok set -> (
        let text = Cst_comm.Comm_set.to_string set in
        match out with
        | None -> print_string text
        | Some path ->
            let oc = open_out path in
            output_string oc text;
            close_out oc;
            Format.printf "wrote %d communications over %d PEs to %s@."
              (Cst_comm.Comm_set.size set)
              (Cst_comm.Comm_set.n set)
              path)
  in
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload name.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default: stdout).")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a communication-set file")
    Term.(const run $ workload $ n_arg $ seed_arg $ out)

(* info *)
let info_cmd =
  let run file workload n seed =
    match obtain_set file workload n seed with
    | Error e -> exit_err e
    | Ok set ->
        Format.printf "PEs:            %d@." (Cst_comm.Comm_set.n set);
        Format.printf "communications: %d@." (Cst_comm.Comm_set.size set);
        Format.printf "width:          %d@." (Cst_comm.Width.width_auto set);
        let right, left = Cst_comm.Decompose.split set in
        Format.printf "orientation:    %d right, %d left@."
          (Cst_comm.Comm_set.size right)
          (Cst_comm.Comm_set.size left);
        (match Cst_comm.Well_nested.check right with
        | Ok () ->
            Format.printf "right part:     well-nested, depth %d@."
              (Cst_comm.Nest_forest.max_depth (Cst_comm.Nest_forest.build right))
        | Error v ->
            Format.printf "right part:     NOT well-nested (%a)@."
              Cst_comm.Well_nested.pp_violation v);
        if Cst_comm.Comm_set.n set <= 128 then
          Format.printf "@.%s" (Cst_report.Arc_diagram.render_set set);
        if Cst_comm.Comm_set.size left > 0 then
          let mirrored = Cst_comm.Mirror.set left in
          match Cst_comm.Well_nested.check mirrored with
          | Ok () ->
              Format.printf "left part:      well-nested, depth %d@."
                (Cst_comm.Nest_forest.max_depth
                   (Cst_comm.Nest_forest.build mirrored))
          | Error v ->
              Format.printf "left part:      NOT well-nested (%a)@."
                Cst_comm.Well_nested.pp_violation v
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Validate a set and print statistics")
    Term.(const run $ file_arg $ workload_arg $ n_arg $ seed_arg)

(* route *)
let route_cmd =
  let run file workload n seed algo engine verbose no_verify shape place =
    match obtain_set file workload n seed with
    | Error e -> exit_err e
    | Ok set -> (
        let engine = Option.value engine ~default:Service.Spec in
        let placement = obtain_mapping place in
        (* Verification below checks the outcome against the set the
           hardware actually saw: the placed one. *)
        let set =
          match placement with
          | Some m -> Cst_placement.Mapping.apply_set m set
          | None -> set
        in
        match Service.run_job (Service.job ~engine ?shape ~id:0 ~algo set) with
        | Error e -> exit_err (Format.asprintf "%a" Service.pp_error e)
        | Ok r ->
            (if verbose then
               match r.detail with
               | Service.Sched s -> Format.printf "%a@." Padr.Schedule.pp s
               | Service.Waves w -> Format.printf "%a@." Padr.Waves.pp w
             else
               Format.printf
                 "%s: %d communications, width %d -> %d rounds in %d \
                  wave(s), %d power units (%d writes), max %d \
                  connects/switch@."
                 r.algo
                 (Cst_comm.Comm_set.size set)
                 r.width r.rounds r.waves r.power.total_connects
                 r.power.total_writes r.power.max_connects_per_switch);
            if r.control_messages > 0 then
              Format.printf "control messages: %d@." r.control_messages;
            if r.blocks > 0 then
              Format.printf "segments: %d independent block(s)@." r.blocks;
            if not no_verify then begin
              let ok =
                match r.detail with
                | Service.Sched sched ->
                    (* Exactly-width rounds are a theorem only on the
                       binary tree; the greedy capacity allocator meets
                       the bound on benched traces but does not promise
                       it, so the optimality check stays binary-only. *)
                    let round_optimal =
                      (match Cst_baselines.Registry.find algo with
                      | Some a -> a.caps.round_optimal
                      | None -> false)
                      && Option.fold ~none:true ~some:Cst.Shape.is_binary
                           shape
                    in
                    let topo =
                      match shape with
                      | Some s -> Cst.Topology.of_shape s
                      | None -> Cst.Topology.create ~leaves:sched.leaves
                    in
                    let report =
                      Padr.Verify.schedule ~check_rounds_optimal:round_optimal
                        topo set sched
                    in
                    Format.printf "verification: %a@." Padr.Verify.pp_report
                      report;
                    report.ok
                | Service.Waves w ->
                    let ok =
                      Padr.Waves.deliveries w = Cst_comm.Comm_set.matching set
                    in
                    Format.printf
                      "verification: wave deliveries match the set: %b@." ok;
                    ok
              in
              if not ok then exit 1
            end)
  in
  let algo =
    Arg.(
      value & opt string "csa"
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:
            (Printf.sprintf "Scheduler: %s."
               (String.concat ", " Cst_baselines.Registry.names)))
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every round.")
  in
  let no_verify =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip verification.")
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Schedule a set on the CST")
    Term.(
      const run $ file_arg $ workload_arg $ n_arg $ seed_arg $ algo
      $ engine_arg $ verbose $ no_verify $ shape_arg $ place_arg)

(* batch: many jobs through the domain pool *)
let batch_cmd =
  let run n jobs algos seed domains queue verbose cache_stats no_cache
      engine_opt store_dir place =
    let placement = obtain_mapping place in
    let algos =
      match algos with
      | [] -> List.map (fun (a : Cst_baselines.Registry.algo) -> a.name)
                (Cst_baselines.Registry.capable ())
      | names ->
          List.iter
            (fun name ->
              if Cst_baselines.Registry.find name = None then
                exit_err (Printf.sprintf "unknown algorithm %S" name))
            names;
          names
    in
    let gens = Cst_workloads.Suite.all in
    let rng = Cst_util.Prng.create seed in
    let make_job i =
      let algo = List.nth algos (i mod List.length algos) in
      let set =
        (* Every fourth job is an arbitrary (possibly crossing, possibly
           mixed-orientation) set, so the batch exercises the service's
           capability dispatch, not just the well-nested fast path. *)
        if i mod 4 = 3 then
          generate ~what:"arbitrary pairs" ~n (fun () ->
              Cst_workloads.Gen_arbitrary.random_pairs rng ~n
                ~pairs:(max 1 (n / 8)))
        else
          let g = List.nth gens (i mod List.length gens) in
          generate ~what:("workload " ^ g.name) ~n (fun () -> g.make rng ~n)
      in
      let set = match set with Ok s -> s | Error e -> exit_err e in
      let engine =
        (* --engine routes every engine-capable job through the chosen
           path; algorithms without an engine keep the spec scheduler
           instead of failing on a capability error. *)
        match Option.value engine_opt ~default:Service.Spec with
        | Service.Spec -> Service.Spec
        | e -> (
            match Cst_baselines.Registry.find algo with
            | Some a when a.caps.engine_available -> e
            | _ -> Service.Spec)
      in
      (* The service rejects a mapping that does not span the job's
         tree; arbitrary-pair jobs keep their own placement semantics
         (a permutation preserves arbitrariness). *)
      Service.job ~engine ?placement ~id:i ~algo set
    in
    let js = List.init jobs make_job in
    let store = Option.map open_store store_dir in
    let t0 = Unix.gettimeofday () in
    let t =
      Service.create ?domains ~queue_capacity:queue ~cache:(not no_cache)
        ?store ()
    in
    let outcomes =
      Fun.protect
        ~finally:(fun () -> Service.shutdown t)
        (fun () ->
          List.iter (Service.submit t) js;
          Service.drain t)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let failed =
      List.filter (fun (o : Service.outcome) -> Result.is_error o.result)
        outcomes
    in
    List.iter
      (fun (o : Service.outcome) ->
        if verbose || Result.is_error o.result then
          Format.printf "%a@." Service.pp_outcome o)
      outcomes;
    Format.printf "%a@." Cst_service.Stats.pp
      [
        Cst_service.Stats.throughput ~jobs ~failed:(List.length failed)
          ~domains:(Service.domains t) ~elapsed_s:dt;
      ];
    if cache_stats then begin
      (* One consolidated stats block: the memory tier, the disk tier
         (when --store attached one; Plan_cache.pp_stats prints both),
         per-domain counters, and the segmented jobs' per-block
         accounting — blocks are cached independently, so a job can be
         partially served by the cache. *)
      (match Service.cache_stats t with
      | Some s ->
          Format.printf "%a@." Cst_service.Plan_cache.pp_stats s;
          Array.iteri
            (fun d (h, m, e) ->
              Format.printf
                "  domain %d: %d hit(s), %d miss(es), %d eviction(s)@." d h m
                e)
            s.per_domain
      | None -> Format.printf "plan cache: disabled@.");
      let seg, blocks, hits =
        List.fold_left
          (fun (seg, blocks, hits) (o : Service.outcome) ->
            match o.result with
            | Ok r when r.blocks > 0 ->
                (seg + 1, blocks + r.blocks, hits + r.block_hits)
            | _ -> (seg, blocks, hits))
          (0, 0, 0) outcomes
      in
      if seg > 0 then
        Format.printf
          "segmented jobs: %d, scheduling %d block(s), %d served from \
           cached block plans@."
          seg blocks hits
    end
  in
  let jobs =
    Arg.(value & opt int 64 & info [ "jobs" ] ~docv:"J" ~doc:"Number of jobs to generate.")
  in
  let algos =
    Arg.(
      value
      & opt (list string) []
      & info [ "algos" ] ~docv:"A,A,..."
          ~doc:"Algorithms to cycle through (default: every registry algorithm).")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:"Worker domains (default: the runtime's recommendation).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"Q" ~doc:"Submission channel capacity (backpressure bound).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every outcome, not only failures.")
  in
  let cache_stats =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:"Print plan-cache hit/miss/eviction statistics after the run.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the plan cache; every job schedules from scratch.")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Attach a persistent plan store rooted at $(docv): cache misses \
             fault plans in from disk, evictions spill to it, and the \
             resident working set is flushed on shutdown, so a later batch \
             against the same directory warm-starts.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Run generated scheduling jobs through the multicore service")
    Term.(
      const run $ n_arg $ jobs $ algos $ seed_arg $ domains $ queue $ verbose
      $ cache_stats $ no_cache $ engine_arg $ store $ place_arg)

(* sweep *)
let sweep_cmd =
  let run n widths algos seed csv cache_stats =
    let algos =
      match algos with
      | [] ->
          (* Capability-selected default: every algorithm whose run
             function accepts a well-nested set — i.e. the whole
             registry, in presentation order. *)
          Cst_baselines.Registry.capable ~supports:`Well_nested ()
      | names ->
          List.map
            (fun name ->
              match Cst_baselines.Registry.find name with
              | Some a -> a
              | None -> exit_err (Printf.sprintf "unknown algorithm %S" name))
            names
    in
    let table =
      Cst_report.Table.create
        ~title:(Printf.sprintf "width sweep on %d PEs" n)
        ~columns:
          ("width"
          :: List.concat_map
               (fun (a : Cst_baselines.Registry.algo) ->
                 [ a.name ^ ":rounds"; a.name ^ ":maxwrites" ])
               algos)
    in
    (* One batch: job id = row-major (width, algo) cell index. *)
    let sets =
      List.map
        (fun w ->
          let rng = Cst_util.Prng.create (seed + w) in
          match
            generate ~what:(Printf.sprintf "sweep at width %d" w) ~n (fun () ->
                Cst_workloads.Gen_wn.with_width rng ~n ~width:w)
          with
          | Ok set -> (w, set)
          | Error e -> exit_err e)
        widths
    in
    let jobs =
      List.concat
        (List.mapi
           (fun wi (_, set) ->
             List.mapi
               (fun ai (a : Cst_baselines.Registry.algo) ->
                 Service.job
                   ~id:((wi * List.length algos) + ai)
                   ~algo:a.name set)
               algos)
           sets)
    in
    (* One pool — and so one plan cache — for the whole sweep: a
       structure that recurs (a repeated width regenerates the same set)
       replays its frozen plan instead of re-scheduling. *)
    let pool = Service.create () in
    let outcomes =
      Array.of_list
        (Fun.protect
           ~finally:(fun () -> Service.shutdown pool)
           (fun () ->
             List.iter (Service.submit pool) jobs;
             Service.drain pool))
    in
    (if cache_stats then
       match Service.cache_stats pool with
       | Some s -> Format.printf "%a@." Cst_service.Plan_cache.pp_stats s
       | None -> Format.printf "plan cache: disabled@.");
    let rows = ref [] in
    List.iteri
      (fun wi (w, _) ->
        let cells =
          List.concat_map
            (fun ai ->
              let o = outcomes.((wi * List.length algos) + ai) in
              match o.Service.result with
              | Ok r ->
                  [
                    string_of_int r.rounds;
                    string_of_int r.power.max_writes_per_switch;
                  ]
              | Error _ -> [ "-"; "-" ])
            (List.init (List.length algos) Fun.id)
        in
        let row = string_of_int w :: cells in
        Cst_report.Table.add_row table row;
        rows := row :: !rows)
      sets;
    Cst_report.Table.print table;
    match csv with
    | None -> ()
    | Some path ->
        Cst_report.Csv.write_file ~path
          ~header:
            ("width"
            :: List.concat_map
                 (fun (a : Cst_baselines.Registry.algo) ->
                   [ a.name ^ "_rounds"; a.name ^ "_maxwrites" ])
                 algos)
          (List.rev !rows);
        Format.printf "wrote %s@." path
  in
  let widths =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8; 16; 32 ]
      & info [ "widths" ] ~docv:"W,W,..." ~doc:"Widths to sweep.")
  in
  let algos =
    Arg.(
      value
      & opt (list string) []
      & info [ "algos" ] ~docv:"A,A,..."
          ~doc:"Algorithms to compare (default: every registry algorithm).")
  in
  let csv =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write CSV.")
  in
  let n =
    Arg.(value & opt int 256 & info [ "n" ] ~docv:"N" ~doc:"PE count (power of two).")
  in
  let cache_stats =
    Arg.(
      value & flag
      & info [ "cache-stats" ]
          ~doc:"Print plan-cache hit/miss/eviction statistics after the sweep.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Compare algorithms across widths")
    Term.(const run $ n $ widths $ algos $ seed_arg $ csv $ cache_stats)

(* waves: schedule arbitrary (crossing / mixed-orientation) sets *)
let waves_cmd =
  let run file workload n seed butterfly pairs =
    let input =
      match (butterfly, pairs) with
      | Some stage, None -> (
          try Ok (Cst_workloads.Gen_arbitrary.butterfly ~n ~stage)
          with Invalid_argument m -> Error m)
      | None, Some p -> (
          try
            Ok
              (Cst_workloads.Gen_arbitrary.random_pairs
                 (Cst_util.Prng.create seed)
                 ~n ~pairs:p)
          with Invalid_argument m -> Error m)
      | Some _, Some _ -> Error "choose one of --butterfly / --random-pairs"
      | None, None -> obtain_set file workload n seed
    in
    match input with
    | Error e -> exit_err e
    | Ok set -> (
        match Padr.Waves.schedule set with
        | Error e -> exit_err (Format.asprintf "%a" Padr.pp_error e)
        | Ok w ->
            Format.printf "%a@." Padr.Waves.pp w;
            let right, left = Cst_comm.Decompose.split set in
            Format.printf
              "cover: %d right layer(s), %d left layer(s); crossing clique \
               lower bound %d@."
              (List.length (Cst_comm.Wn_cover.layers right))
              (List.length
                 (Cst_comm.Wn_cover.layers (Cst_comm.Mirror.set left)))
              (max
                 (Cst_comm.Wn_cover.clique_lower_bound right)
                 (Cst_comm.Wn_cover.clique_lower_bound
                    (Cst_comm.Mirror.set left)));
            let ok =
              Padr.Waves.deliveries w = Cst_comm.Comm_set.matching set
            in
            Format.printf "deliveries match the set: %b@." ok;
            if not ok then exit 1)
  in
  let butterfly =
    Arg.(
      value
      & opt (some int) None
      & info [ "butterfly" ] ~docv:"STAGE"
          ~doc:"Use butterfly exchange stage $(docv) as the input set.")
  in
  let pairs =
    Arg.(
      value
      & opt (some int) None
      & info [ "random-pairs" ] ~docv:"M"
          ~doc:"Use $(docv) random arbitrary pairs as the input set.")
  in
  Cmd.v
    (Cmd.info "waves"
       ~doc:"Schedule an arbitrary set as a sequence of CSA waves")
    Term.(
      const run $ file_arg $ workload_arg $ n_arg $ seed_arg $ butterfly
      $ pairs)

(* dot: Graphviz export of a round's configured network *)
let dot_cmd =
  let run file workload n seed round out shape =
    let emit dot =
      match out with
      | None -> print_string dot
      | Some path ->
          Cst.Dot.write_file ~path dot;
          Format.printf "wrote %s (render with: dot -Tsvg %s)@." path path
    in
    match shape with
    | Some s when not (Cst.Shape.is_binary s) ->
        (* Non-binary rounds carry no [Switch_config] snapshots (the
           crossbar state is not representable), so render the shaped
           tree itself: real fanout per node, [:xc] capacity labels. *)
        emit (Cst.Dot.of_topology (Cst.Topology.of_shape s))
    | _ -> (
        match obtain_set file workload n seed with
        | Error e -> exit_err e
        | Ok set -> (
            match Padr.schedule ?shape set with
            | Error e -> exit_err (Format.asprintf "%a" Padr.pp_error e)
            | Ok sched ->
                if round < 1 || round > Padr.Schedule.num_rounds sched then
                  exit_err
                    (Printf.sprintf "round %d out of range (schedule has %d)"
                       round
                       (Padr.Schedule.num_rounds sched));
                let topo = Cst.Topology.create ~leaves:sched.leaves in
                let net = Cst.Net.create topo in
                Padr.Schedule.fold_configs sched ~init:() ~f:(fun () index live ->
                    if index = round then
                      List.iter
                        (fun (node, cfg) -> Cst.Net.reconfigure net ~node cfg)
                        live);
                emit (Cst.Dot.of_net net)))
  in
  let round =
    Arg.(value & opt int 1 & info [ "r"; "round" ] ~docv:"ROUND" ~doc:"Round to render (1-based).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default: stdout).")
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Export a scheduled round as Graphviz (with a non-binary \
          --shape: the shaped tree itself)")
    Term.(
      const run $ file_arg $ workload_arg $ n_arg $ seed_arg $ round $ out
      $ shape_arg)

(* log: dump a run's canonical execution log *)
let log_cmd =
  let run file workload n seed algo narrate summary shape =
    match obtain_set file workload n seed with
    | Error e -> exit_err e
    | Ok set -> (
        match Cst_baselines.Registry.find algo with
        | None ->
            exit_err
              (Printf.sprintf "unknown algorithm %S (known: %s)" algo
                 (String.concat ", " Cst_baselines.Registry.names))
        | Some a ->
            let topo =
              match shape with
              | Some s -> Cst.Topology.of_shape s
              | None ->
                  Cst.Topology.create
                    ~leaves:
                      (Cst_util.Bits.ceil_pow2
                         (max 2 (Cst_comm.Comm_set.n set)))
            in
            if (not (Cst.Topology.is_binary topo))
               && not a.caps.shape_generic
            then
              exit_err
                (Printf.sprintf
                   "algorithm %S does not run on non-binary topologies"
                   algo);
            let log = Cst.Exec_log.create () in
            (try ignore (a.run ~log topo set)
             with Invalid_argument m -> exit_err m);
            if not summary then
              if narrate then
                Format.printf "%a@." Cst.Trace.pp (Cst.Trace.of_log log)
              else Format.printf "%a@." Cst.Exec_log.pp log;
            let worst = ref 0 and total = ref 0 and active = ref 0 in
            for node = 0 to Cst.Topology.leaves topo - 1 do
              let a = Cst.Exec_log.driver_alternations log ~node in
              if a > 0 then begin
                total := !total + a;
                incr active
              end;
              worst := max !worst a
            done;
            Format.printf "events: %d (%d bytes)@." (Cst.Exec_log.length log)
              (Cst.Exec_log.bytes_used log);
            Format.printf
              "driver alternations per switch: max %d, mean %.2f over %d \
               active switch(es)@."
              !worst
              (if !active = 0 then 0.0
               else float_of_int !total /. float_of_int !active)
              !active;
            let sh = Cst.Topology.shape topo in
            Format.printf "shape: %s (%d leaves, %d level(s), fingerprint 0x%x)@."
              (Cst.Shape.to_string sh) (Cst.Shape.leaves sh)
              (Cst.Shape.levels sh) (Cst.Shape.fingerprint sh);
            Format.printf "digest: %s@." (Cst.Exec_log.digest log))
  in
  let algo =
    Arg.(
      value & opt string "csa"
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:
            (Printf.sprintf "Scheduler: %s."
               (String.concat ", " Cst_baselines.Registry.names)))
  in
  let narrate =
    Arg.(
      value & flag
      & info [ "narrate" ]
          ~doc:"Print the human-readable trace narration instead of raw events.")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:"Suppress the event listing; print only counts and the digest.")
  in
  Cmd.v
    (Cmd.info "log"
       ~doc:"Run a scheduler and dump its canonical execution log")
    Term.(
      const run $ file_arg $ workload_arg $ n_arg $ seed_arg $ algo $ narrate
      $ summary $ shape_arg)

(* stats: post-hoc schedule analysis *)
let stats_cmd =
  let run file workload n seed =
    match obtain_set file workload n seed with
    | Error e -> exit_err e
    | Ok set -> (
        match Padr.schedule set with
        | Error e -> exit_err (Format.asprintf "%a" Padr.pp_error e)
        | Ok sched ->
            let occ = Cst_report.Schedule_stats.occupancy sched in
            Format.printf
              "%d communications in %d rounds (width %d): mean %.2f per \
               round, max %d, min %d@."
              occ.comms occ.rounds sched.width occ.mean_per_round
              occ.max_per_round occ.min_per_round;
            Format.printf "max link use: %d@."
              (Cst_report.Schedule_stats.max_link_use sched);
            Cst_report.Table.print
              (Cst_report.Schedule_stats.per_round_table sched);
            let audit =
              Padr.Invariants.audit
                (Cst.Topology.create ~leaves:sched.leaves)
                set
            in
            Format.printf "register audit: %a@." Padr.Invariants.pp_report
              audit)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Analyse a CSA schedule (occupancy, links, audit)")
    Term.(const run $ file_arg $ workload_arg $ n_arg $ seed_arg)

(* plan: persistent compiled-plan files and the on-disk store *)
let plan_export_cmd =
  let run file workload n seed engine out =
    match obtain_set file workload n seed with
    | Error e -> exit_err e
    | Ok set -> (
        let leaves =
          Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n set))
        in
        let topo = Cst.Topology.create ~leaves in
        let producer = if engine then Padr.Plan.Engine else Padr.Plan.Spec in
        match Padr.Plan.compile ~producer topo set with
        | Error e -> exit_err (Format.asprintf "%a" Padr.pp_error e)
        | Ok plan ->
            (try Padr.Plan.Codec.write_file ~path:out plan
             with Sys_error m -> exit_err m);
            Format.printf "wrote %s (%d bytes): %a@." out
              (Padr.Plan.Codec.encoded_bytes plan)
              Padr.Plan.pp plan)
  in
  let engine =
    Arg.(
      value & flag
      & info [ "engine" ]
          ~doc:
            "Compile through the message-passing engine (its cycle and \
             control-message model) instead of the functional scheduler.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Plan file to write.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Compile a set and write the plan as a portable binary file")
    Term.(
      const run $ file_arg $ workload_arg $ n_arg $ seed_arg $ engine $ out)

let store_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR" ~doc:"Plan store directory.")

let plan_import_cmd =
  let run files store algo =
    if files = [] then exit_err "no plan files given";
    let st = open_store store in
    List.iter
      (fun path ->
        match Padr.Plan.Codec.read_file ~path with
        | exception Sys_error m -> exit_err m
        | Error e ->
            exit_err
              (Format.asprintf "%s: %a" path Padr.Plan.Codec.pp_error e)
        | Ok plan ->
            let engine = plan.producer = Padr.Plan.Engine in
            Cst_service.Plan_store.store st ~algo ~engine plan;
            Format.printf "imported %s: %a@." path Padr.Plan.pp plan)
      files;
    Format.printf "%a@." Cst_service.Plan_store.pp_stats
      (Cst_service.Plan_store.stats st)
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Plan files.")
  in
  let algo =
    Arg.(
      value & opt string "csa"
      & info [ "a"; "algo" ] ~docv:"ALGO"
          ~doc:
            "Registry algorithm the imported plans are keyed under — the \
             plan file stores the producer model, not the algorithm name.")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Verify plan files and add them to a plan store")
    Term.(const run $ files $ store_arg $ algo)

let plan_ls_cmd =
  let run store =
    let names =
      match Sys.readdir store with
      | names -> names
      | exception Sys_error m -> exit_err m
    in
    Array.sort compare names;
    let count = ref 0 and total = ref 0 in
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".plan" then begin
          let path = Filename.concat store f in
          match Padr.Plan.Codec.read_file ~path with
          | exception Sys_error m -> Format.printf "%s  UNREADABLE (%s)@." f m
          | Error e ->
              Format.printf "%s  CORRUPT (%a)@." f Padr.Plan.Codec.pp_error e
          | Ok plan ->
              let bytes = Padr.Plan.Codec.encoded_bytes plan in
              incr count;
              total := !total + bytes;
              Format.printf "%s  %d bytes  %a@." f bytes Padr.Plan.pp plan
        end)
      names;
    Format.printf "%d plan(s), %d bytes@." !count !total
  in
  Cmd.v
    (Cmd.info "ls" ~doc:"List and verify the plans in a store directory")
    Term.(const run $ store_arg)

let plan_cmd =
  Cmd.group
    (Cmd.info "plan"
       ~doc:"Compile, import and list persistent plan files")
    [ plan_export_cmd; plan_import_cmd; plan_ls_cmd ]


(* place: profile recurring traffic, emit a width-minimizing mapping *)
let place_cmd =
  let run file workload n seed trace shape refine out apply_report =
    let sets =
      match (file, workload) with
      | Some path, None -> (
          match load_set path with
          | Ok s -> [ s ]
          | Error e -> exit_err e)
      | None, Some w ->
          List.init trace (fun i ->
              match gen_set ~workload:w ~n ~seed:(seed + i) with
              | Ok s -> s
              | Error e -> exit_err e)
      | None, None -> exit_err "provide either a FILE or --workload"
      | Some _, Some _ ->
          exit_err "provide either a FILE or --workload, not both"
    in
    let pes =
      List.fold_left (fun m s -> max m (Cst_comm.Comm_set.n s)) 2 sets
    in
    let profile = Cst_placement.Profile.create ~n:pes in
    List.iter (Cst_placement.Profile.add_set profile) sets;
    let mapping =
      Cst_placement.Optimize.optimize ?shape ~refine_passes:refine profile
    in
    let leaves = Cst_placement.Mapping.n mapping in
    let identity = Cst_placement.Mapping.identity ~n:leaves in
    let w_id = Cst_placement.Optimize.expected_width ?shape profile identity in
    let w_pl = Cst_placement.Optimize.expected_width ?shape profile mapping in
    Format.eprintf "profile: %d weighted pair(s) over %d PEs (%d set(s))@."
      (Cst_placement.Profile.size profile)
      pes (List.length sets);
    Format.eprintf "tree: %d leaves%s@." leaves
      (match shape with
      | Some s -> Printf.sprintf " (%s)" (Cst.Shape.to_string s)
      | None -> "");
    Format.eprintf "expected width: identity %.2f -> placed %.2f (%.2fx)@."
      w_id w_pl
      (if w_pl > 0.0 then w_id /. w_pl else 1.0);
    if apply_report then begin
      let sum m =
        List.fold_left
          (fun acc s -> acc + Cst_placement.Optimize.width_of_set ?shape m s)
          0 sets
      in
      Format.eprintf
        "per-set widths summed over the trace: identity %d -> placed %d@."
        (sum identity) (sum mapping)
    end;
    if Cst_placement.Mapping.is_identity mapping then
      Format.eprintf "placement: identity (nothing to gain)@.";
    let text = Cst_placement.Mapping.to_string mapping in
    match out with
    | None -> print_string text
    | Some path ->
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        Format.printf "wrote placement over %d leaf slot(s) to %s@." leaves
          path
  in
  let trace =
    Arg.(
      value & opt int 8
      & info [ "trace" ] ~docv:"J"
          ~doc:
            "With --workload: profile $(docv) sets drawn with seeds SEED, \
             SEED+1, ... — a recurring-traffic trace rather than a single \
             sample.")
  in
  let refine =
    Arg.(
      value & opt int 3
      & info [ "refine" ] ~docv:"K"
          ~doc:"Hill-climbing refinement passes after the recursive \
                partition (0 disables).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Mapping file to write (default: stdout).")
  in
  let apply_report =
    Arg.(
      value & flag
      & info [ "widths" ]
          ~doc:"Also report per-set integer widths before/after, summed \
                over the profiled trace.")
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:
         "Profile recurring traffic and emit a width-minimizing \
          PE-to-leaf placement (apply with --place on route/batch/serve)")
    Term.(
      const run $ file_arg $ workload_arg $ n_arg $ seed_arg $ trace
      $ shape_arg $ refine $ out $ apply_report)

(* serve: the streaming scheduler as a line protocol on stdin/stdout.

   Grammar (one command per line; blank lines and #-comments ignored):
     SUBMIT [key=value ...]   admit a job into the open epoch
       keys: workload=NAME | file=PATH   (input set; workload default
             "uniform"), n=N, seed=S, algo=NAME (default "csa"),
             engine=spec|mp|segmented (default: --engine), id=K
             (default: submission counter), leaves=L,
             shape=bin:N|kary:K:N|fat:L0,L1[:c0,c1] (exclusive with
             leaves=; a shape change forces an epoch boundary)
     TICK                     re-evaluate the admission policy
     DRAIN                    commit, wait for everything, print outcomes
     STATS                    one-line JSON (stream + cache tiers)
     QUIT                     drain, shut the pool down, exit

   Replies: "SUBMITTED <id>", "OK [..]", "BYE", one outcome line per
   drained job ("<outcome> epoch=<e>"), or "ERR <reason>" — the protocol
   never kills the server on a bad line. *)
let serve_cmd =
  let run policy recon_delta engine_opt domains queue no_cache store_dir place
      auto_place =
    let policy =
      match Cst_service.Admission.of_string policy with
      | Ok p -> p
      | Error e -> exit_err e
    in
    let store = Option.map open_store store_dir in
    let default_engine = Option.value engine_opt ~default:Service.Spec in
    let placement = obtain_mapping place in
    let auto =
      match auto_place with
      | None -> None
      | Some spec -> (
          if Option.is_some placement then
            exit_err "--place and --auto-place are exclusive";
          match String.split_on_char ':' spec with
          | [ n ] | [ n; "" ] -> (
              match int_of_string_opt n with
              | Some n when n >= 2 ->
                  Some (Cst_placement.Auto.create ~n ())
              | _ -> exit_err "--auto-place: N must be an integer >= 2")
          | [ n; cost ] -> (
              match (int_of_string_opt n, float_of_string_opt cost) with
              | Some n, Some c when n >= 2 && c > 0.0 ->
                  Some (Cst_placement.Auto.create ~remap_cost:c ~n ())
              | _ -> exit_err "--auto-place: expected N[:COST]")
          | _ -> exit_err "--auto-place: expected N[:COST]")
    in
    let stream =
      Cst_service.Stream.create ?domains ~queue_capacity:queue
        ~cache:(not no_cache) ?store ~policy ~recon_delta ?placement:auto ()
    in
    let next_id = ref 0 in
    let parse_kvs tokens =
      List.fold_left
        (fun acc tok ->
          Result.bind acc (fun kvs ->
              match String.index_opt tok '=' with
              | Some i when i > 0 ->
                  Ok
                    ((String.sub tok 0 i,
                      String.sub tok (i + 1) (String.length tok - i - 1))
                    :: kvs)
              | _ -> Error (Printf.sprintf "malformed argument %S" tok)))
        (Ok []) tokens
    in
    let int_kv kvs key ~default =
      match List.assoc_opt key kvs with
      | None -> Ok default
      | Some v -> (
          match int_of_string_opt v with
          | Some i -> Ok i
          | None -> Error (Printf.sprintf "%s must be an integer, got %S" key v))
    in
    let submit_job tokens =
      let ( let* ) = Result.bind in
      let* kvs = parse_kvs tokens in
      let* n = int_kv kvs "n" ~default:64 in
      let* seed = int_kv kvs "seed" ~default:1 in
      let* id = int_kv kvs "id" ~default:!next_id in
      let* leaves = int_kv kvs "leaves" ~default:0 in
      let* shape =
        match List.assoc_opt "shape" kvs with
        | None -> Ok None
        | Some spec -> (
            match Cst.Shape.of_string spec with
            | Ok sh -> Ok (Some sh)
            | Error e -> Error e)
      in
      let* () =
        if Option.is_some shape && leaves <> 0 then
          Error "leaves= and shape= are exclusive"
        else Ok ()
      in
      let algo = Option.value (List.assoc_opt "algo" kvs) ~default:"csa" in
      let* set =
        match List.assoc_opt "file" kvs with
        | Some path -> load_set path
        | None ->
            gen_set
              ~workload:
                (Option.value (List.assoc_opt "workload" kvs)
                   ~default:"uniform")
              ~n ~seed
      in
      let* engine =
        match List.assoc_opt "engine" kvs with
        | None -> Ok default_engine
        | Some e -> (
            match List.assoc_opt e engines with
            | Some engine -> Ok engine
            | None ->
                Error
                  (Printf.sprintf "unknown engine %S (%s)" e
                     (String.concat "|" (List.map fst engines))))
      in
      let leaves = if leaves = 0 then None else Some leaves in
      Ok (Service.job ~engine ?leaves ?shape ?placement ~id ~algo set)
    in
    let drain () =
      let outs = Cst_service.Stream.drain stream in
      List.iter
        (fun ((o : Service.outcome), (tm : Cst_service.Stream.timing)) ->
          Format.printf "%s epoch=%d@." (Service.outcome_to_string o) tm.epoch)
        outs;
      Format.printf "OK %d@." (List.length outs)
    in
    let rec loop () =
      match input_line stdin with
      | exception End_of_file ->
          ignore (Cst_service.Stream.drain stream);
          Cst_service.Stream.shutdown stream
      | line -> (
          let words =
            String.split_on_char ' ' (String.trim line)
            |> List.filter (fun w -> w <> "")
          in
          match words with
          | [] -> loop ()
          | cmd :: _ when String.length cmd > 0 && cmd.[0] = '#' -> loop ()
          | "SUBMIT" :: rest ->
              (match submit_job rest with
              | Ok job ->
                  next_id := max !next_id (job.id + 1);
                  Cst_service.Stream.submit stream job;
                  Format.printf "SUBMITTED %d@." job.id
              | Error e -> Format.printf "ERR %s@." e);
              loop ()
          | [ "TICK" ] ->
              Cst_service.Stream.tick stream;
              Format.printf "OK@.";
              loop ()
          | [ "DRAIN" ] ->
              drain ();
              loop ()
          | [ "STATS" ] ->
              print_endline
                (Cst_service.Stats.to_json
                   (Cst_service.Stream.sections stream));
              flush stdout;
              loop ()
          | [ "QUIT" ] ->
              ignore (Cst_service.Stream.drain stream);
              Cst_service.Stream.shutdown stream;
              Format.printf "BYE@."
          | cmd :: _ ->
              Format.printf "ERR unknown command %S@." cmd;
              loop ())
    in
    loop ()
  in
  let policy =
    Arg.(
      value & opt string "immediate"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Admission policy: $(b,immediate), $(b,quantum:SECONDS) \
             (commit on a fixed cadence) or $(b,delta:DELTA[:MAX_WIDTH]) \
             (δ-aware ski rental: commit once accumulated waiting reaches \
             DELTA job-seconds, or when the merged width would exceed \
             MAX_WIDTH).")
  in
  let recon_delta =
    Arg.(
      value & opt float 16.0
      & info [ "recon-delta" ] ~docv:"POWER"
          ~doc:
            "Reconfiguration power charged per committed epoch (the δ of \
             the Costly-Circuits model); reported by STATS.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:"Worker domains (default: the runtime's recommendation).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"Q"
          ~doc:"Submission channel capacity (backpressure bound).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the plan cache; every job schedules from scratch.")
  in
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Attach a persistent plan store rooted at $(docv).")
  in
  let auto_place =
    Arg.(
      value
      & opt (some string) None
      & info [ "auto-place" ] ~docv:"N[:COST]"
          ~doc:
            "Attach a self-adjusting placement layer over $(b,N) PEs: \
             arriving sets feed a decayed demand profile and jobs are \
             rewritten through the installed mapping, which remaps \
             between epochs once the forgone width savings exceed \
             $(b,COST) (ski rental; default 32).  Exclusive with \
             --place.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming scheduler on stdin/stdout (SUBMIT / TICK / \
          DRAIN / STATS / QUIT)")
    Term.(
      const run $ policy $ recon_delta $ engine_arg $ domains $ queue
      $ no_cache $ store $ place_arg $ auto_place)

let () =
  let doc = "power-aware routing on the circuit switched tree" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "cstool" ~version:"1.0.0" ~doc)
          [
            gen_cmd; info_cmd; route_cmd; batch_cmd; sweep_cmd; waves_cmd;
            dot_cmd; log_cmd; stats_cmd; plan_cmd; place_cmd; serve_cmd;
          ]))
