(* Persistent plan store: disk round trips, quarantine of every
   corruption mode, byte-budget eviction, and warm restarts that are
   byte-identical to cold runs under both engines. *)

open Helpers
module Store = Cst_service.Plan_store
module Cache = Cst_service.Plan_cache
module Service = Cst_service.Service

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "cst-plan-store-test-%d" !counter)
    in
    (* leftovers from an earlier run would perturb the counters *)
    if Sys.file_exists d then
      Array.iter
        (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
        (Sys.readdir d);
    d

let compile ~n pairs =
  Result.get_ok
    (Padr.Plan.compile ~producer:Padr.Plan.Engine (topo n) (set ~n pairs))

let store_roundtrip () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  let plan = compile ~n:8 [ (0, 3); (1, 2); (4, 7) ] in
  Store.store st ~algo:"csa" ~engine:true plan;
  check_int "one entry" 1 (Store.stats st).entries;
  (match
     Store.find st ~algo:"csa" ~engine:true ~shape:plan.shape ~base:plan.base
       ~canon:plan.canon
   with
  | None -> Alcotest.fail "stored plan must be found"
  | Some p ->
      check_true "canon" (Cst.Canon.equal p.canon plan.canon);
      check_true "log digest"
        (Cst.Exec_log.digest p.log = Cst.Exec_log.digest plan.log));
  (* same canon under another key is a miss, not a false share *)
  check_true "engine:false misses"
    (Store.find st ~algo:"csa" ~engine:false ~shape:plan.shape ~base:plan.base
       ~canon:plan.canon
    = None);
  check_true "other algo misses"
    (Store.find st ~algo:"upper" ~engine:true ~shape:plan.shape ~base:plan.base
       ~canon:plan.canon
    = None);
  let s = Store.stats st in
  check_int "one hit" 1 s.hits;
  check_int "two misses" 2 s.misses;
  (* a fresh handle on the same directory sees the persisted entry *)
  let st2 = Store.open_dir dir in
  check_true "warm reopen hits"
    (Store.find st2 ~algo:"csa" ~engine:true ~shape:plan.shape ~base:plan.base
       ~canon:plan.canon
    <> None)

(* Each corruption mode: read_file reports the matching typed error, and
   the store quarantines the file (renamed *.corrupt) and misses — no
   exception, no wrong plan. *)
let corrupt_and_probe ~name corrupt check_err =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  let plan = compile ~n:8 [ (0, 3); (1, 2); (4, 7) ] in
  Store.store st ~algo:"csa" ~engine:true plan;
  let file =
    match
      Array.to_list (Sys.readdir dir)
      |> List.filter (fun f -> Filename.check_suffix f ".plan")
    with
    | [ f ] -> Filename.concat dir f
    | l -> Alcotest.failf "expected one .plan file, found %d" (List.length l)
  in
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let b = corrupt b in
  let oc = open_out_bin file in
  output_bytes oc b;
  close_out oc;
  (match Padr.Plan.Codec.read_file ~path:file with
  | Ok _ -> Alcotest.failf "%s: corrupt file must not decode" name
  | Error e ->
      check_true
        (Printf.sprintf "%s: typed error (got %s)" name
           (Format.asprintf "%a" Padr.Plan.Codec.pp_error e))
        (check_err e));
  (* a fresh handle faults the corrupt file in: quarantine and miss *)
  let st2 = Store.open_dir dir in
  check_true
    (name ^ ": store misses")
    (Store.find st2 ~algo:"csa" ~engine:true ~shape:plan.shape ~base:plan.base
       ~canon:plan.canon
    = None);
  let s = Store.stats st2 in
  check_int (name ^ ": corrupt counted") 1 s.corrupt;
  check_int (name ^ ": no hit") 0 s.hits;
  check_true
    (name ^ ": quarantined")
    (Array.exists
       (fun f -> Filename.check_suffix f ".corrupt")
       (Sys.readdir dir));
  check_true
    (name ^ ": no .plan left")
    (not
       (Array.exists
          (fun f -> Filename.check_suffix f ".plan")
          (Sys.readdir dir)))

let corruption_truncated () =
  corrupt_and_probe ~name:"truncated"
    (fun b -> Bytes.sub b 0 (Bytes.length b / 2))
    (function
      (* a mid-file cut may land in the plan header or in the embedded
         log section; both are Truncated, just at different layers *)
      | Padr.Plan.Codec.Truncated _
      | Padr.Plan.Codec.Log (Cst.Exec_log.Codec.Truncated _) ->
          true
      | _ -> false)

let corruption_arena_flip () =
  corrupt_and_probe ~name:"arena flip"
    (fun b ->
      let pos = Bytes.length b - 4 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      b)
    (function
      | Padr.Plan.Codec.Log
          (Cst.Exec_log.Codec.Digest_mismatch | Cst.Exec_log.Codec.Bad_word _)
        ->
          true
      | _ -> false)

let corruption_version () =
  corrupt_and_probe ~name:"wrong version"
    (fun b ->
      Bytes.set b 8 '\007';
      b)
    (function
      | Padr.Plan.Codec.Unsupported_version { found = 7; _ } -> true
      | _ -> false)

let corruption_canon_hash () =
  corrupt_and_probe ~name:"wrong canon hash"
    (fun b ->
      (* the embedded log section's canon-hash field; the log arena
         digest does not cover it, so only the plan-level cross-check
         can catch the splice *)
      let n = Char.code (Bytes.get b 64) lor (Char.code (Bytes.get b 65) lsl 8) in
      let pos = 80 + (8 * n) + 16 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
      b)
    (function Padr.Plan.Codec.Canon_mismatch -> true | _ -> false)

let eviction () =
  let dir = temp_dir () in
  let plan = compile ~n:8 [ (0, 3); (1, 2); (4, 7) ] in
  (* room for the largest plan plus a sliver — never all three *)
  let st =
    Store.open_dir ~max_bytes:(Padr.Plan.Codec.encoded_bytes plan + 128) dir
  in
  let plans =
    List.map
      (fun pairs -> compile ~n:8 pairs)
      [ [ (0, 3); (1, 2); (4, 7) ]; [ (0, 7); (1, 6) ]; [ (2, 5); (3, 4) ] ]
  in
  List.iter (fun p -> Store.store st ~algo:"csa" ~engine:true p) plans;
  let s = Store.stats st in
  check_true "evicted at least once" (s.evictions >= 1);
  check_true "budget respected" (s.bytes <= s.max_bytes);
  (* the newest plan survived *)
  let last = List.nth plans 2 in
  check_true "most recent resident"
    (Store.find st ~algo:"csa" ~engine:true ~shape:last.shape ~base:last.base
       ~canon:last.canon
    <> None)

let cache_flush_warm () =
  let dir = temp_dir () in
  let st = Store.open_dir dir in
  let cache = Cache.create ~store:st ~domains:1 () in
  let plan = compile ~n:8 [ (0, 3); (1, 2) ] in
  let key =
    { Cache.algo = "csa"; engine = true; shape = plan.shape;
      base = plan.base; canon = plan.canon }
  in
  Cache.add cache ~worker:0 key plan;
  check_int "nothing on disk before flush" 0 (Store.stats st).stores;
  Cache.flush cache;
  check_int "flush persisted it" 1 (Store.stats st).stores;
  Cache.flush cache;
  check_int "flush is idempotent" 1 (Store.stats st).stores;
  (* a brand-new cache over a fresh handle faults the plan from disk *)
  let st2 = Store.open_dir dir in
  let cache2 = Cache.create ~store:st2 ~domains:1 () in
  (match Cache.find cache2 ~worker:0 key with
  | None -> Alcotest.fail "warm cache must fault the plan in"
  | Some p ->
      check_true "faulted plan digest"
        (Cst.Exec_log.digest p.log = Cst.Exec_log.digest plan.log));
  let cs = Cache.stats cache2 in
  check_int "memory tier missed" 1 cs.misses;
  (match cs.store with
  | None -> Alcotest.fail "stats must surface the disk tier"
  | Some ss -> check_int "disk tier hit" 1 ss.hits);
  (* now resident: the second lookup is a memory hit *)
  ignore (Cache.find cache2 ~worker:0 key);
  check_int "then memory hit" 1 (Cache.stats cache2).hits

let jobs_of engine =
  List.mapi
    (fun id pairs -> Service.job ~id ~algo:"csa" ~engine (set ~n:16 pairs))
    [
      [ (0, 7); (1, 6); (8, 15) ];
      [ (0, 7); (1, 6); (8, 15) ];
      (* same shape translated: replays the same plan *)
      [ (2, 5); (8, 11) ];
      [ (6, 9) ];
    ]

let warm_service_equiv engine () =
  let dir = temp_dir () in
  let jobs = jobs_of engine in
  let cold =
    List.map Service.outcome_to_string (Service.run ~domains:1 jobs)
  in
  let populate =
    List.map Service.outcome_to_string
      (Service.run ~domains:1 ~store:(Store.open_dir dir) jobs)
  in
  (* a restarted service over the same directory replays from disk *)
  let st = Store.open_dir dir in
  let warm =
    List.map Service.outcome_to_string (Service.run ~domains:1 ~store:st jobs)
  in
  check_true "populating run matches cold" (populate = cold);
  check_true "warm restart matches cold" (warm = cold);
  check_true "warm run actually hit the disk tier"
    ((Store.stats st).hits > 0)

(* A digest-valid plan whose log names a switch outside its 64-leaf
   tree: written through the store's own API, so every digest holds.
   Decode must reject it, the store must quarantine it, and the job must
   recompile to the outcome an uncached run gives. *)
let forged_plan_recompiles () =
  let dir = temp_dir () in
  let pairs = [ (0, 3); (1, 2); (8, 9) ] in
  let s = set ~n:64 pairs in
  let t = topo 64 in
  let plan = compile ~n:64 pairs in
  let forged_log = Cst.Exec_log.create () in
  let moved = ref false in
  Cst.Exec_log.iter plan.log (function
    | Cst.Exec_log.Connect c when not !moved ->
        moved := true;
        Cst.Exec_log.append forged_log
          (Cst.Exec_log.Connect { c with node = 5000 })
    | e -> Cst.Exec_log.append forged_log e);
  check_true "a connect was moved" !moved;
  let forged =
    Padr.Plan.of_log ~producer:plan.producer ~topo:t ~set:s
      ~rounds:plan.rounds ~cycles:plan.cycles
      ~control_messages:plan.control_messages forged_log
  in
  (match Padr.Plan.Codec.decode (Padr.Plan.Codec.encode forged) with
  | Error (Padr.Plan.Codec.Bad_field _) -> ()
  | Error e ->
      Alcotest.failf "forged plan: unexpected error %a"
        Padr.Plan.Codec.pp_error e
  | Ok _ -> Alcotest.fail "forged plan must not decode");
  let st = Store.open_dir dir in
  Store.store st ~algo:"csa" ~engine:true forged;
  let job = [ Service.job ~id:0 ~algo:"csa" ~engine:Service.Message_passing s ] in
  let uncached =
    List.map Service.outcome_to_string (Service.run ~domains:1 ~cache:false job)
  in
  let served =
    List.map Service.outcome_to_string (Service.run ~domains:1 ~store:st job)
  in
  check_int "forged file counted corrupt" 1 (Store.stats st).corrupt;
  check_true "outcome equals the uncached one" (served = uncached)

let suite =
  [
    case "store round trip and keying" store_roundtrip;
    case "corruption: truncated file" corruption_truncated;
    case "corruption: flipped arena byte" corruption_arena_flip;
    case "corruption: wrong version" corruption_version;
    case "corruption: wrong canon hash" corruption_canon_hash;
    case "forged plan: node outside the tree recompiles"
      forged_plan_recompiles;
    case "byte-budget eviction" eviction;
    case "cache flush and warm fault-in" cache_flush_warm;
    case "warm restart ≡ cold (message-passing)"
      (warm_service_equiv Service.Message_passing);
    case "warm restart ≡ cold (segmented)"
      (warm_service_equiv Service.Segmented);
  ]
