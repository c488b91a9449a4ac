(* Differential fuzzer: hammers every scheduler with random sets and
   cross-checks all of the paper's invariants.  Complements the qcheck
   properties with longer runs and cross-implementation comparisons;
   prints the reproducing seed on failure.

   Run with:  dune exec bin/fuzz.exe -- [--count N] [--seed N]
   (positional [iterations] [seed] still accepted).  A short
   deterministic run is wired into the default test alias. *)

let failures = ref 0

let complain seed fmt =
  Format.kasprintf
    (fun msg ->
      incr failures;
      Format.printf "FAIL (seed %d): %s@." seed msg)
    fmt

(* The service's cached segment-parallel path: the second run of a set
   on one plan cache is served from relocated block logs, and must still
   report what the sequential engine reports — digest, rounds, cycles,
   control messages and the whole power record, per-switch ledger
   included.  Both outcomes' schedules must verify, and the config
   snapshots they stream from their logs must equal the spec
   scheduler's, round by round.  The set is checked alone and as two
   side-by-side copies: a rerun of the set alone relocates each block
   onto its own placement, while the second copy's blocks are served
   from the first copy's plans at a translated base. *)
let check_cached_segmented seed set =
  let module S = Cst_service.Service in
  let snapshots sched =
    List.rev
      (Padr.Schedule.fold_configs sched ~init:[] ~f:(fun acc index live ->
           (index, live) :: acc))
  in
  List.iter
    (fun set ->
      let job engine = S.job ~engine ~id:0 ~algo:"csa" set in
      let pc = Cst_service.Plan_cache.create ~domains:1 () in
      let segmented () = S.run_job ~cache:(pc, 0) (job S.Segmented) in
      ignore (segmented ());
      match (S.run_job (job S.Message_passing), segmented ()) with
      | Ok e, Ok h -> (
          if h.block_hits <> h.blocks then
            complain seed "cached segmented rerun missed %d of %d blocks"
              (h.blocks - h.block_hits) h.blocks;
          if
            h.digest <> e.digest || h.rounds <> e.rounds
            || h.cycles <> e.cycles
            || h.control_messages <> e.control_messages
            || h.power <> e.power
          then
            complain seed "cached segmented outcome diverges from the engine";
          match (e.detail, h.detail) with
          | Sched es, Sched hs ->
              let spec = snapshots (Padr.schedule_exn set) in
              List.iter
                (fun (path, (sched : Padr.Schedule.t)) ->
                  let topo = Cst.Topology.create ~leaves:sched.leaves in
                  let report = Padr.Verify.schedule topo set sched in
                  if not report.ok then
                    complain seed "%s schedule verification: %s" path
                      (String.concat "; " report.issues);
                  if snapshots sched <> spec then
                    complain seed "%s snapshots diverge from the spec's" path)
                [ ("engine", es); ("cached segmented", hs) ]
          | _ -> complain seed "engine outcome carries no schedule")
      | Error err, _ | _, Error err ->
          complain seed "cached segmented check failed: %a" S.pp_error err)
    [ set; Cst_workloads.Gen_wn.tile ~copies:2 set ]

let check_well_nested seed rng =
  let n = 1 lsl (2 + Cst_util.Prng.int rng 7) in
  let density = 0.05 +. Cst_util.Prng.float rng 0.95 in
  let set = Cst_workloads.Gen_wn.uniform rng ~n ~density in
  let topo = Cst.Topology.create ~leaves:n in
  let expected = Cst_comm.Comm_set.matching set in
  let width = Cst_comm.Width.width ~leaves:n set in
  (* the CSA, functional and message-passing; scheduler failures (notably
     the typed Stalled no-progress error) are reported structurally
     instead of crashing the fuzz run *)
  let spec_log = Cst.Exec_log.create () in
  let eng_log = Cst.Exec_log.create () in
  match
    (Padr.Csa.run ~log:spec_log topo set, Padr.Engine.run ~log:eng_log topo set)
  with
  | Error e, _ | _, Error e ->
      (match e with
      | Padr.Csa.Stalled { round; remaining } ->
          complain seed "scheduler stalled: round %d, %d remaining" round
            remaining
      | e -> complain seed "scheduler rejected the set: %a" Padr.Csa.pp_error e)
  | Ok spec, Ok (eng, stats) ->
  let report = Padr.verify spec in
  if not report.ok then
    complain seed "csa verification: %s" (String.concat "; " report.issues);
  if Padr.Schedule.num_rounds spec <> width then
    complain seed "csa rounds %d <> width %d"
      (Padr.Schedule.num_rounds spec)
      width;
  if Padr.Schedule.all_deliveries eng <> expected then
    complain seed "engine deliveries diverge";
  if
    Padr.Schedule.num_rounds eng <> Padr.Schedule.num_rounds spec
    || eng.power.total_connects <> spec.power.total_connects
  then complain seed "engine/spec mismatch";
  if stats.max_message_words > 4 || stats.state_words_per_switch <> 5 then
    complain seed "engine exceeded constant word sizes";
  (* the engine against the spec, digest for digest, and its hardware
     statistics against Theorem 5's closed form *)
  if Cst.Exec_log.digest eng_log <> Cst.Exec_log.digest spec_log then
    complain seed "engine digest diverges from the spec's";
  let cycles, messages =
    Cst.Topology.engine_cost topo ~rounds:(Padr.Schedule.num_rounds spec)
  in
  if
    eng.cycles <> cycles || stats.cycles <> cycles
    || stats.control_messages <> messages
  then complain seed "engine stats diverge from the closed form";
  (* the segment-parallel engine against the sequential one, digest for
     digest *)
  let par_log = Cst.Exec_log.create () in
  (match Padr.Par_engine.run ~domains:2 ~log:par_log topo set with
  | Error e ->
      complain seed "segmented engine failed: %a" Padr.Csa.pp_error e
  | Ok (psched, pstats) ->
      if Cst.Exec_log.digest par_log <> Cst.Exec_log.digest eng_log then
        complain seed "segmented engine digest diverges";
      if
        psched.cycles <> eng.cycles
        || pstats.control_messages <> stats.control_messages
      then complain seed "segmented engine stats diverge");
  (* every baseline *)
  List.iter
    (fun (a : Cst_baselines.Registry.algo) ->
      let s = a.run topo set in
      if Padr.Schedule.all_deliveries s <> expected then
        complain seed "%s deliveries diverge" a.name;
      if Padr.Schedule.num_rounds s < width then
        complain seed "%s beat the width bound" a.name;
      if s.power.max_writes_per_switch < spec.power.max_writes_per_switch
      then
        complain seed "%s wrote less than the CSA (%d < %d)" a.name
          s.power.max_writes_per_switch spec.power.max_writes_per_switch)
    Cst_baselines.Registry.all;
  check_cached_segmented seed set

let check_arbitrary seed rng =
  let n = 1 lsl (2 + Cst_util.Prng.int rng 6) in
  let set =
    match Cst_util.Prng.int rng 3 with
    | 0 -> Cst_workloads.Gen_arbitrary.random_pairs rng ~n ~pairs:(n / 3)
    | 1 ->
        Cst_workloads.Gen_arbitrary.butterfly ~n
          ~stage:(Cst_util.Prng.int rng (Cst_util.Bits.ilog2 n))
    | _ -> Cst_workloads.Gen_arbitrary.bit_reversal_sample rng ~n
  in
  let w = Padr.Waves.schedule_exn set in
  if Padr.Waves.deliveries w <> Cst_comm.Comm_set.matching set then
    complain seed "waves deliveries diverge";
  let right, left = Cst_comm.Decompose.split set in
  let bound =
    max
      (Cst_comm.Wn_cover.clique_lower_bound right)
      (Cst_comm.Wn_cover.clique_lower_bound (Cst_comm.Mirror.set left))
  in
  if Padr.Waves.num_waves w < bound then
    complain seed "wave cover beat its clique lower bound"

(* A re-sealed mutation: one config event of the plan's log moves to a
   node outside the tree (node 0, a leaf, or past the last node) through
   the log API, and the plan is rebuilt and encoded afresh, so every
   digest is valid.  Only the decoder's range checks can reject it. *)
let check_resealed seed rng topo set (plan : Padr.Plan.t) =
  let configs =
    Cst.Exec_log.fold plan.log ~init:0 ~f:(fun k e ->
        match e with
        | Cst.Exec_log.Connect _ | Cst.Exec_log.Disconnect _
        | Cst.Exec_log.Write_config _ ->
            k + 1
        | _ -> k)
  in
  if configs > 0 then begin
    let leaves = Cst.Topology.leaves topo in
    let victim = Cst_util.Prng.int rng configs in
    let outside =
      match Cst_util.Prng.int rng 3 with
      | 0 -> 0
      | 1 -> leaves + Cst_util.Prng.int rng leaves
      | _ -> (2 * leaves) + Cst_util.Prng.int rng ((1 lsl 20) - (2 * leaves))
    in
    let log = Cst.Exec_log.create () in
    let k = ref 0 in
    Cst.Exec_log.iter plan.log (fun e ->
        let moved =
          match e with
          | Cst.Exec_log.Connect c when !k = victim ->
              Cst.Exec_log.Connect { c with node = outside }
          | Cst.Exec_log.Disconnect c when !k = victim ->
              Cst.Exec_log.Disconnect { c with node = outside }
          | Cst.Exec_log.Write_config c when !k = victim ->
              Cst.Exec_log.Write_config { c with node = outside }
          | e -> e
        in
        (match e with
        | Cst.Exec_log.Connect _ | Cst.Exec_log.Disconnect _
        | Cst.Exec_log.Write_config _ ->
            incr k
        | _ -> ());
        Cst.Exec_log.append log moved);
    let forged =
      Padr.Plan.of_log ~producer:plan.producer ~topo ~set ~rounds:plan.rounds
        ~cycles:plan.cycles ~control_messages:plan.control_messages log
    in
    match Padr.Plan.Codec.decode (Padr.Plan.Codec.encode forged) with
    | Ok _ ->
        complain seed "re-sealed plan with a config event at node %d decoded"
          outside
    | Error _ -> ()
  end

(* Codec differential: anything the binary codec round-trips must be
   indistinguishable from the original — the decoded log digest equals
   the source log's, and replaying a decoded plan is digest-identical
   to scheduling the set from scratch.  Corruption must be detected:
   flipping any arena byte or truncating the buffer yields a typed
   error, never a wrong plan or an escaping exception, and so does a
   re-sealed plan whose events leave the tree. *)
let check_codec seed rng =
  let n = 1 lsl (2 + Cst_util.Prng.int rng 7) in
  let density = 0.05 +. Cst_util.Prng.float rng 0.95 in
  let set = Cst_workloads.Gen_wn.uniform rng ~n ~density in
  let topo = Cst.Topology.create ~leaves:n in
  (* raw event-log round trip *)
  check_cached_segmented seed set;
  let log = Cst.Exec_log.create () in
  ignore (Padr.Engine.run_exn ~log topo set);
  (match Cst.Exec_log.Codec.decode (Cst.Exec_log.Codec.encode log) with
  | Error e ->
      complain seed "log codec rejected its own encoding: %a"
        Cst.Exec_log.Codec.pp_error e
  | Ok (decoded, _) ->
      if Cst.Exec_log.digest decoded <> Cst.Exec_log.digest log then
        complain seed "log codec round trip changed the digest";
      if Cst.Exec_log.length decoded <> Cst.Exec_log.length log then
        complain seed "log codec round trip changed the length");
  (* plan round trip, replayed against a fresh schedule *)
  (match Padr.Plan.compile ~producer:Padr.Plan.Engine topo set with
  | Error e -> complain seed "plan compile failed: %a" Padr.Csa.pp_error e
  | Ok plan -> (
      let b = Padr.Plan.Codec.encode plan in
      match Padr.Plan.Codec.decode b with
      | Error e ->
          complain seed "plan codec rejected its own encoding: %a"
            Padr.Plan.Codec.pp_error e
      | Ok decoded ->
          if
            decoded.rounds <> plan.rounds
            || decoded.cycles <> plan.cycles
            || decoded.producer <> plan.producer
            || decoded.leaves <> plan.leaves
          then complain seed "plan codec round trip changed header fields";
          let relocated = Padr.Plan.relocate decoded topo set in
          if Cst.Exec_log.digest relocated <> Cst.Exec_log.digest log then
            complain seed "decoded plan's replay diverges from a fresh run";
          (* corruption: flip one arena byte (the digest-covered tail) *)
          let events = Cst.Exec_log.length plan.log in
          if events > 0 then begin
            let c = Bytes.copy b in
            let pos =
              Bytes.length c - 1 - Cst_util.Prng.int rng (8 * events)
            in
            Bytes.set c pos
              (Char.chr (Char.code (Bytes.get c pos) lxor (1 lsl Cst_util.Prng.int rng 8)));
            match Padr.Plan.Codec.decode c with
            | Ok _ ->
                complain seed "flipped arena byte at %d went undetected" pos
            | Error _ -> ()
          end;
          (* corruption: truncation anywhere must be typed, not fatal *)
          let cut = Cst_util.Prng.int rng (Bytes.length b) in
          (match Padr.Plan.Codec.decode (Bytes.sub b 0 cut) with
          | Ok _ -> complain seed "truncation to %d bytes went undetected" cut
          | Error _ -> ());
          check_resealed seed rng topo set plan))

(* Random non-binary shapes: complete k-ary trees and capacity-weighted
   two-layer fat trees (leaves <= 81). *)
let random_shape rng =
  if Cst_util.Prng.int rng 2 = 0 then begin
    let k = 3 + Cst_util.Prng.int rng 2 in
    let d = if k = 3 then 2 + Cst_util.Prng.int rng 2 else 2 in
    let leaves = ref 1 in
    for _ = 1 to d do
      leaves := !leaves * k
    done;
    Cst.Shape.kary ~k ~leaves:!leaves
  end
  else
    let leaves = 16 lsl Cst_util.Prng.int rng 3 in
    let mid = 4 lsl Cst_util.Prng.int rng 2 in
    let c = 1 + Cst_util.Prng.int rng 3 in
    match
      Cst.Shape.fat_tree ~level_sizes:[| leaves; mid |]
        ~capacities:[| c; c |]
    with
    | Ok s -> s
    | Error _ -> assert false

(* Shape differential: the capacity scheduler on random k-ary/fat
   shapes must deliver the matching, respect the capacity-weighted
   width bound, pass the capacity-aware verifier and digest-match the
   segment-parallel engine; a capacity-1 fat-tree ladder is
   structurally the binary tree and must reproduce its digests
   exactly. *)
let check_shapes seed rng =
  let shape = random_shape rng in
  let topo = Cst.Topology.of_shape shape in
  let n = Cst.Shape.leaves shape in
  let density = 0.05 +. Cst_util.Prng.float rng 0.95 in
  let set = Cst_workloads.Gen_wn.uniform rng ~n ~density in
  let expected = Cst_comm.Comm_set.matching set in
  let width = Cst.Compat.width topo set in
  let log = Cst.Exec_log.create () in
  (match Padr.Csa.run ~log topo set with
  | Error e ->
      complain seed "capacity scheduler rejected the set: %a"
        Padr.Csa.pp_error e
  | Ok sched ->
      if Padr.Schedule.all_deliveries sched <> expected then
        complain seed "shape scheduler deliveries diverge";
      if Padr.Schedule.num_rounds sched < width then
        complain seed "shape scheduler beat the capacity-width bound";
      let report =
        Padr.Verify.schedule ~check_rounds_optimal:false topo set sched
      in
      if not report.ok then
        complain seed "shape verification: %s"
          (String.concat "; " report.issues);
      let par_log = Cst.Exec_log.create () in
      (match Padr.Par_engine.run ~domains:2 ~log:par_log topo set with
      | Error e ->
          complain seed "segmented shape run failed: %a" Padr.Csa.pp_error e
      | Ok _ ->
          if Cst.Exec_log.digest par_log <> Cst.Exec_log.digest log then
            complain seed "segmented shape digest diverges"));
  let n2 = 1 lsl (2 + Cst_util.Prng.int rng 5) in
  let set2 = Cst_workloads.Gen_wn.uniform rng ~n:n2 ~density in
  let rec down sz = if sz < 2 then [] else sz :: down (sz / 2) in
  let level_sizes = Array.of_list (down n2) in
  let capacities = Array.make (Array.length level_sizes) 1 in
  match Cst.Shape.fat_tree ~level_sizes ~capacities with
  | Error e ->
      complain seed "binary ladder rejected: %a" Cst.Shape.pp_error e
  | Ok s ->
      if not (Cst.Shape.is_binary s) then
        complain seed "capacity-1 ladder not recognized as binary";
      let l1 = Cst.Exec_log.create () and l2 = Cst.Exec_log.create () in
      ignore (Padr.Csa.run_exn ~log:l1 (Cst.Topology.of_shape s) set2);
      ignore (Padr.Csa.run_exn ~log:l2 (Cst.Topology.create ~leaves:n2) set2);
      if Cst.Exec_log.digest l1 <> Cst.Exec_log.digest l2 then
        complain seed "capacity-1 ladder diverges from the binary tree"

let check_algos seed rng =
  let n = 1 lsl (1 + Cst_util.Prng.int rng 6) in
  let a = Array.init n (fun _ -> Cst_util.Prng.int_in rng (-1000) 1000) in
  let r = Cst_algos.Scan.run Cst_algos.Scan.sum a in
  if r.exclusive <> Cst_algos.Scan.exclusive_reference Cst_algos.Scan.sum a
  then complain seed "scan diverges";
  if n <= 64 then begin
    let sorted, _ = Cst_algos.Sort.run a in
    let expect = Array.copy a in
    Array.sort compare expect;
    if sorted <> expect then complain seed "sort diverges"
  end

let usage () : 'a =
  prerr_endline
    "usage: fuzz [--count N] [--seed N]  (or positionally: fuzz [N [seed]])";
  exit 2

let () =
  let iterations = ref 300 and base_seed = ref 0xC57 in
  let argc = Array.length Sys.argv in
  let npos = ref 0 and i = ref 1 in
  let int_arg () =
    incr i;
    if !i >= argc then usage ();
    match int_of_string_opt Sys.argv.(!i) with
    | Some v -> v
    | None -> usage ()
  in
  while !i < argc do
    (match Sys.argv.(!i) with
    | "--count" -> iterations := int_arg ()
    | "--seed" -> base_seed := int_arg ()
    | a -> (
        match (int_of_string_opt a, !npos) with
        | Some v, 0 ->
            iterations := v;
            incr npos
        | Some v, 1 ->
            base_seed := v;
            incr npos
        | _ -> usage ()));
    incr i
  done;
  let iterations = !iterations and base_seed = !base_seed in
  for i = 1 to iterations do
    let seed = base_seed + i in
    let rng = Cst_util.Prng.create seed in
    (match i mod 5 with
    | 0 -> check_well_nested seed rng
    | 1 -> check_arbitrary seed rng
    | 2 -> check_codec seed rng
    | 3 -> check_shapes seed rng
    | _ -> check_algos seed rng);
    if i mod 100 = 0 then
      Format.printf "... %d/%d iterations, %d failure(s)@." i iterations
        !failures
  done;
  if !failures = 0 then begin
    Format.printf "fuzz: %d iterations, all invariants held@." iterations;
    exit 0
  end
  else begin
    Format.printf "fuzz: %d failure(s)@." !failures;
    exit 1
  end
