(* Golden digest corpus: one line per job of a fixed job list, printed
   with [Service.outcome_to_string] (digest, rounds, cycles, messages,
   power totals).  The runtest rule diffs the output against
   corpus.expected, so any change to what the hardware does — event for
   event, on any producer — shows up as a changed line.  Refresh with
   [dune promote] only when a digest change is intended.

   Sections:
   - suite:   every workload generator, spec CSA, three tree sizes;
   - algo:    every registry algorithm on a few shapes of input;
   - waves:   crossing and mixed-orientation sets (wave covers, and the
              direct path of the crossing-tolerant baselines);
   - shape:   binary, k-ary and fat-tree topologies;
   - engine:  spec, message-passing and segmented engines, each with
              plan-cache misses then hits (cache status printed);
   - large:   cold 1024- and 4096-PE jobs on every engine;
   - placed:  one job rewritten through a leaf placement;
   - error:   typed rejections;
   - stream:  the three admission policies replayed on a manual clock
              (epoch per job, then the stream's deterministic counters);
   - multi:   multi-set runs on persistent networks — superstep programs,
              traffic traces, broadcasts and segmentable-bus steps (counts,
              power totals and a hash of the three per-switch arrays). *)

module Service = Cst_service.Service
module Stream = Cst_service.Stream
module Admission = Cst_service.Admission
module Plan_cache = Cst_service.Plan_cache
module Suite = Cst_workloads.Suite
module Gen_arbitrary = Cst_workloads.Gen_arbitrary

let next_id = ref 0

let fresh_id () =
  let i = !next_id in
  incr next_id;
  i

let line section label text = Printf.printf "%-7s %-28s %s\n" section label text

let run ?cache section label job =
  let result = Service.run_job ?cache job in
  let o = { Service.job_id = job.Service.id; result } in
  let suffix =
    match (cache, result) with
    | Some _, Ok r ->
        (match r.Service.cache with
        | Service.Hit -> " cache=hit"
        | Service.Miss -> " cache=miss"
        | Service.Bypass -> " cache=bypass")
        ^
        if r.blocks > 0 then
          Printf.sprintf " blocks=%d/%d" r.block_hits r.blocks
        else ""
    | _ -> ""
  in
  line section label (Service.outcome_to_string o ^ suffix)

let job ?engine ?leaves ?shape ?placement ~algo set =
  Service.job ?engine ?leaves ?shape ?placement ~id:(fresh_id ()) ~algo set

let gen name ~seed ~n =
  match Suite.find name with
  | Some g -> g.make (Cst_util.Prng.create seed) ~n
  | None -> invalid_arg ("corpus: unknown generator " ^ name)

(* [set] with every endpoint moved right by [by] PEs, on [n] PEs. *)
let translate ~n ~by set =
  Cst_comm.Comm_set.create_exn ~n
    (Array.to_list
       (Array.map
          (fun c ->
            Cst_comm.Comm.make ~src:(c.Cst_comm.Comm.src + by)
              ~dst:(c.Cst_comm.Comm.dst + by))
          (Cst_comm.Comm_set.comms set)))

let engines_named =
  [ ("spec", Service.Spec); ("mp", Service.Message_passing);
    ("seg", Service.Segmented) ]

let suite () =
  List.iter
    (fun (g : Suite.gen) ->
      List.iter
        (fun n ->
          List.iter
            (fun seed ->
              run "suite"
                (Printf.sprintf "%s/n=%d/s=%d" g.name n seed)
                (job ~algo:"csa" (g.make (Cst_util.Prng.create seed) ~n)))
            [ 1; 2 ])
        [ 8; 64; 256 ])
    Suite.all

let algos () =
  let inputs =
    [
      ("uniform/64", gen "uniform" ~seed:3 ~n:64);
      ("onion/64", gen "onion" ~seed:0 ~n:64);
      ("full-onion/32", gen "full-onion" ~seed:0 ~n:32);
      ("flip-flop/128", gen "flip-flop" ~seed:0 ~n:128);
      ("blocks/256", gen "blocks" ~seed:5 ~n:256);
      ("deep-staircase/64", gen "deep-staircase" ~seed:0 ~n:64);
    ]
  in
  List.iter
    (fun (a : Cst_baselines.Registry.algo) ->
      List.iter
        (fun (label, set) ->
          run "algo" (a.name ^ "/" ^ label) (job ~algo:a.name set))
        inputs)
    Cst_baselines.Registry.all

let waves () =
  let crossing =
    [
      ( "random-pairs/64/s1",
        Gen_arbitrary.random_pairs (Cst_util.Prng.create 1) ~n:64 ~pairs:20 );
      ( "random-pairs/256/s2",
        Gen_arbitrary.random_pairs (Cst_util.Prng.create 2) ~n:256 ~pairs:90 );
      ("butterfly/64/st2", Gen_arbitrary.butterfly ~n:64 ~stage:2);
      ("butterfly/128/st4", Gen_arbitrary.butterfly ~n:128 ~stage:4);
      ( "bit-reversal/64/s3",
        Gen_arbitrary.bit_reversal_sample (Cst_util.Prng.create 3) ~n:64 );
      ( "bit-reversal/256/s4",
        Gen_arbitrary.bit_reversal_sample (Cst_util.Prng.create 4) ~n:256 );
      ( "mirrored-onion/64",
        Cst_comm.Mirror.set (gen "onion" ~seed:0 ~n:64) );
    ]
  in
  List.iter
    (fun (label, set) ->
      List.iter
        (fun algo -> run "waves" (algo ^ "/" ^ label) (job ~algo set))
        [ "csa"; "greedy"; "naive" ])
    crossing

let shapes () =
  let shape s =
    match Cst.Shape.of_string s with
    | Ok sh -> sh
    | Error e -> invalid_arg ("corpus: bad shape " ^ s ^ ": " ^ e)
  in
  let cases =
    [
      ("bin64", shape "bin:64");
      ("kary4/64", shape "kary:4:64");
      ("kary8/64", shape "kary:8:64");
      ("fat64/8:2", shape "fat:64,8:1,2");
      ("fat256/16:4", shape "fat:256,16:1,4");
    ]
  in
  List.iter
    (fun (label, sh) ->
      let leaves = Cst.Shape.leaves sh in
      List.iter
        (fun (g, seed) ->
          List.iter
            (fun (ename, engine) ->
              run "shape"
                (Printf.sprintf "%s/%s/%s" label g ename)
                (job ~engine ~shape:sh ~algo:"csa" (gen g ~seed ~n:leaves)))
            [ ("spec", Service.Spec); ("mp", Service.Message_passing) ])
        [ ("uniform", 7); ("onion", 0); ("blocks", 8) ])
    cases

(* Each engine runs misses, exact repeats and translates through its own
   plan cache, so both the replay and the relocation paths print. *)
let engines () =
  let base16 = gen "onion" ~seed:0 ~n:16 in
  let block_set =
    (* two top-level blocks: a 16-PE onion at 0 and a dense set at 32 *)
    let u = translate ~n:64 ~by:32 (gen "dense" ~seed:9 ~n:16) in
    match Cst_comm.Comm_set.union (translate ~n:64 ~by:0 base16) u with
    | Ok s -> s
    | Error _ -> invalid_arg "corpus: block union"
  in
  List.iter
    (fun (ename, engine) ->
      let cache = (Plan_cache.create ~domains:1 (), 0) in
      let cases =
        [
          ("uniform/128", gen "uniform" ~seed:11 ~n:128);
          ("uniform/128/repeat", gen "uniform" ~seed:11 ~n:128);
          ("onion16@0/64", translate ~n:64 ~by:0 base16);
          ("onion16@48/64", translate ~n:64 ~by:48 base16);
          ("blocks/64", block_set);
          ("blocks/64/repeat", block_set);
          ("blocks/512/s6", gen "blocks" ~seed:6 ~n:512);
          ("blocks/512/s6/repeat", gen "blocks" ~seed:6 ~n:512);
        ]
      in
      List.iter
        (fun (label, set) ->
          run ~cache "engine" (ename ^ "/" ^ label)
            (job ~engine ~leaves:(Cst_comm.Comm_set.n set) ~algo:"csa" set))
        cases)
    engines_named

(* Cold jobs at the service benchmark's scale, every engine, no cache. *)
let large () =
  List.iter
    (fun n ->
      List.iter
        (fun (g, seed) ->
          let set = gen g ~seed ~n in
          List.iter
            (fun (ename, engine) ->
              run "large"
                (Printf.sprintf "%s/%d/%s" g n ename)
                (job ~engine ~algo:"csa" set))
            engines_named)
        [ ("uniform", 31); ("dense", 32); ("onion", 0); ("blocks", 33) ])
    [ 1024; 4096 ]

let placed () =
  let n = 64 in
  (* bit reversal of the 6-bit leaf index: pairs become a crossing set *)
  let rev i =
    let r = ref 0 in
    for b = 0 to 5 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (5 - b))
    done;
    !r
  in
  let bitrev = Cst_placement.Mapping.of_array (Array.init n rev) in
  run "placed" "pairs/64/bitrev"
    (job ~placement:bitrev ~algo:"csa" (gen "pairs" ~seed:0 ~n));
  (* swapping the two halves keeps each 16-PE block well-nested *)
  let swap =
    Cst_placement.Mapping.of_array (Array.init n (fun i -> i lxor 32))
  in
  run "placed" "blocks/64/swap/mp"
    (job ~engine:Service.Message_passing ~placement:swap ~algo:"csa"
       (gen "blocks" ~seed:4 ~n))

let errors () =
  let set = gen "uniform" ~seed:1 ~n:64 in
  let crossing = Gen_arbitrary.butterfly ~n:16 ~stage:1 in
  run "error" "too-large" (job ~leaves:32 ~algo:"csa" set);
  run "error" "unknown-algo" (job ~algo:"nope" set);
  run "error" "crossing/depth" (job ~algo:"depth" crossing);
  run "error" "crossing/mp"
    (job ~engine:Service.Message_passing ~algo:"csa" crossing);
  run "error" "crossing/seg"
    (job ~engine:Service.Segmented ~algo:"csa" crossing);
  run "error" "mp/greedy"
    (job ~engine:Service.Message_passing ~algo:"greedy" set)

(* Admission replay: a fixed arrival trace on a manual clock, one worker
   domain.  Epoch ids and the stream counters are functions of the
   trace and the policy alone. *)
let stream () =
  let policies =
    [
      Admission.Immediate;
      Admission.Quantum 0.25;
      Admission.Delta_threshold { delta = 0.15; max_width = Some 20 };
    ]
  in
  List.iter
    (fun policy ->
      let now = ref 0.0 in
      let st = Stream.create ~domains:1 ~policy ~clock:(fun () -> !now) () in
      let rng = Cst_util.Prng.create 21 in
      let trace =
        Cst_workloads.Arrivals.poisson (Cst_util.Prng.create 22) ~rate:8.0
          ~jobs:16
      in
      for i = 0 to 15 do
        now := trace.times.(i);
        let set =
          if i mod 4 = 3 then
            Gen_arbitrary.random_pairs rng ~n:64 ~pairs:12
          else
            let names = [| "uniform"; "onion"; "blocks"; "sparse" |] in
            let g = names.(Cst_util.Prng.int rng (Array.length names)) in
            gen g ~seed:(Cst_util.Prng.int rng 1000) ~n:64
        in
        let engine =
          if i mod 2 = 0 || i mod 4 = 3 then Service.Spec
          else Service.Message_passing
        in
        Stream.submit st (Service.job ~engine ~id:i ~algo:"csa" set);
        if i mod 3 = 2 then begin
          now := !now +. 0.1;
          Stream.tick st
        end
      done;
      let done_ = Stream.drain st in
      let s = Stream.stats st in
      Stream.shutdown st;
      let pname = Admission.to_string policy in
      List.iter
        (fun ((o : Service.outcome), (tm : Stream.timing)) ->
          line "stream" pname
            (Printf.sprintf "%s epoch=%d" (Service.outcome_to_string o)
               tm.epoch))
        done_;
      line "stream" pname
        (Printf.sprintf
           "epochs=%d coalesced=%d max_epoch_jobs=%d max_epoch_width=%d \
            disjoint=%d crossing=%d max_wave_layers=%d job_connects=%d \
            job_writes=%d recon_power=%g"
           s.epochs s.coalesced_jobs s.max_epoch_jobs s.max_epoch_width
           s.disjoint_epochs s.crossing_jobs s.max_wave_layers s.job_connects
           s.job_writes s.recon_power))
    policies

(* --- multi-set runs ---------------------------------------------- *)

(* FNV-style hash over every entry, array lengths included. *)
let hash_ints arrays =
  let h = ref 0x811c9dc5 in
  let mix v = h := ((!h lxor v) * 0x100000001b3) land max_int in
  List.iter
    (fun a ->
      mix (Array.length a);
      Array.iter mix a)
    arrays;
  Printf.sprintf "%016x" !h

let power_text (p : Padr.Schedule.power) =
  Printf.sprintf
    "connects=%d disconnects=%d writes=%d maxc/sw=%d maxw/sw=%d maxe/sw=%d \
     sw=%s"
    p.total_connects p.total_disconnects p.total_writes
    p.max_connects_per_switch p.max_writes_per_switch p.max_events_per_switch
    (hash_ints
       [
         Padr.Schedule.per_switch_connects p;
         Padr.Schedule.per_switch_writes p;
         Padr.Schedule.per_switch_disconnects p;
       ])

let superstep_line label out (s : Cst_algos.Superstep.stats) =
  line "multi" label
    (Printf.sprintf "out=%s supersteps=%d waves=%d rounds=%d cycles=%d %s"
       (hash_ints [ out ]) s.supersteps s.waves s.rounds s.cycles
       (power_text s.power))

let supersteps () =
  let values ~seed n =
    let rng = Cst_util.Prng.create seed in
    Array.init n (fun _ -> Cst_util.Prng.int rng 1000)
  in
  List.iter
    (fun n ->
      let r = Cst_algos.Scan.run Cst_algos.Scan.sum (values ~seed:n n) in
      superstep_line (Printf.sprintf "scan/%d" n) r.inclusive r.stats)
    [ 2; 8; 32; 128 ];
  List.iter
    (fun n ->
      let rng = Cst_util.Prng.create (n + 1) in
      let flags = Array.init n (fun _ -> Cst_util.Prng.chance rng 0.25) in
      let out, stats =
        Cst_algos.Scan.segmented Cst_algos.Scan.sum (values ~seed:(n + 2) n)
          ~flags
      in
      superstep_line (Printf.sprintf "segscan/%d" n) out stats)
    [ 16; 64 ];
  List.iter
    (fun n ->
      let out, stats = Cst_algos.Sort.run (values ~seed:(n + 3) n) in
      superstep_line (Printf.sprintf "odd-even/%d" n) out stats)
    [ 8; 32 ];
  List.iter
    (fun n ->
      let out, stats = Cst_algos.Sort.bitonic (values ~seed:(n + 4) n) in
      superstep_line (Printf.sprintf "bitonic/%d" n) out stats)
    [ 8; 32; 64 ]

let traces () =
  let module Traffic = Cst_sim.Traffic in
  let mixed =
    let leaves = 64 in
    let phase label set = { Traffic.label; set } in
    Traffic.make_exn ~leaves
      [
        phase "onion" (gen "onion" ~seed:0 ~n:leaves);
        phase "mirrored-onion"
          (Cst_comm.Mirror.set (gen "onion" ~seed:0 ~n:leaves));
        phase "pairs"
          (Gen_arbitrary.random_pairs (Cst_util.Prng.create 41) ~n:leaves
             ~pairs:20);
        phase "butterfly" (Gen_arbitrary.butterfly ~n:leaves ~stage:3);
        phase "uniform/32" (gen "uniform" ~seed:42 ~n:32);
        phase "onion-again" (gen "onion" ~seed:0 ~n:leaves);
      ]
  in
  List.iter
    (fun (name, trace) ->
      let r = Cst_sim.Runner.run_padr trace in
      List.iter
        (fun (p : Cst_sim.Runner.phase_result) ->
          line "multi"
            (Printf.sprintf "%s/%s" name p.label)
            (Printf.sprintf
               "comms=%d width=%d waves=%d rounds=%d cycles=%d connects=%d \
                writes=%d"
               p.comms p.width p.waves p.rounds p.cycles p.connects p.writes))
        r.phases;
      line "multi" (name ^ "/total")
        (Printf.sprintf "rounds=%d cycles=%d %s" r.rounds r.cycles
           (power_text r.power)))
    [
      ( "trace-suite",
        Cst_sim.Traffic.from_suite (Cst_util.Prng.create 40) ~leaves:32
          ~rounds:1 );
      ("trace-mixed", mixed);
    ]

let broadcasts () =
  for origin = 0 to 15 do
    let r = Cst_srga.Broadcast.run ~n:16 ~origin in
    line "multi"
      (Printf.sprintf "broadcast/16/o=%d" origin)
      (Printf.sprintf "stages=%d rounds=%d power=%d covered=%d" r.stages
         r.rounds r.power_units (List.length r.covered))
  done

let bus_steps () =
  let module Segbus = Cst_workloads.Segbus in
  let step label bus writes =
    match (Segbus.run_bus bus writes, Segbus.run_on_cst bus writes) with
    | Error e, _ | _, Error e ->
        line "multi" label (Format.asprintf "rejected: %a" Segbus.pp_error e)
    | Ok bus_deliveries, Ok (v : Padr.Waves.t) ->
        line "multi" label
          (Printf.sprintf "rounds=%d cycles=%d bus=%b %s" v.rounds v.cycles
             (Padr.Waves.deliveries v = bus_deliveries)
             (power_text v.power))
  in
  let w writer reader = { Segbus.writer; reader } in
  let bus = Segbus.create ~n:16 in
  step "bus/16/whole" bus [ w 2 13 ];
  List.iter (Segbus.cut bus) [ 3; 7; 11 ];
  step "bus/16/four" bus [ w 0 3; w 6 4; w 8 11; w 15 12 ];
  Segbus.join bus 7;
  step "bus/16/contention" bus [ w 4 7; w 8 11 ];
  step "bus/16/merged" bus [ w 4 11; w 15 12; w 2 0 ];
  let rng = Cst_util.Prng.create 43 in
  for i = 1 to 6 do
    let bus = Segbus.create ~n:32 in
    for c = 0 to 30 do
      if Cst_util.Prng.chance rng 0.3 then Segbus.cut bus c
    done;
    let writes =
      List.filter_map
        (fun (lo, hi) ->
          if hi = lo then None
          else
            let writer = Cst_util.Prng.int_in rng lo hi in
            let rec reader () =
              let r = Cst_util.Prng.int_in rng lo hi in
              if r = writer then reader () else r
            in
            Some (w writer (reader ())))
        (Segbus.segments bus)
    in
    step (Printf.sprintf "bus/32/r%d" i) bus writes
  done

let multi () =
  supersteps ();
  traces ();
  broadcasts ();
  bus_steps ()

let () =
  suite ();
  algos ();
  waves ();
  shapes ();
  engines ();
  large ();
  placed ();
  errors ();
  stream ();
  multi ()
