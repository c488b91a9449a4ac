(* Self-test of the benchmark: every workload, at a small size, run twice
   on one seed, timed, on the pool and traced.  The exact counts must repeat and every
   job must pass the correctness gate. *)

module Work = Perfbench.Work

let seed = 7

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Printf.sprintf "store-%d-%d" (Unix.getpid ()) !n in
    Unix.mkdir d 0o755;
    d

let remove_dir d =
  Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
  Unix.rmdir d

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

(* The counts that must not vary between runs of one job list. *)
let exact_counts kind =
  let w = Work.make ~size:Work.Small kind ~seed in
  let refs = Perfbench.Refs.compute w in
  let store_dir = if kind = Work.Recurring then Some (fresh_dir ()) else None in
  let timed = Perfbench.Timed.run ~pre_s:0.0 ?store_dir w refs in
  Option.iter remove_dir store_dir;
  let store_dir = if kind = Work.Recurring then Some (fresh_dir ()) else None in
  let pool = Perfbench.Timed.run ~pool:true ~pre_s:0.0 ?store_dir w refs in
  Option.iter remove_dir store_dir;
  let store_dir = if kind = Work.Recurring then Some (fresh_dir ()) else None in
  let traced = Perfbench.Traced.run ?store_dir w refs in
  Option.iter remove_dir store_dir;
  let name = Work.name kind in
  check (name ^ ": timed run failed the gate") (timed.failed = 0);
  check (name ^ ": pool run failed the gate") (pool.failed = 0);
  check (name ^ ": traced run failed the gate") (traced.failed = 0);
  check (name ^ ": nothing measured") (timed.attempted > 0 && traced.attempted > 0);
  let e k = List.assoc k timed.e2e and l k = List.assoc k traced.layer in
  ( Work.fingerprint w,
    [
      ("rounds_per_job", e "rounds_per_job");
      (* the stream's power includes the epoch count, which follows timing *)
      ("power_per_job", if kind = Work.Stream then 0.0 else e "power_per_job");
      ("padr.blocks_per_job", l "padr.blocks_per_job");
      ("cst.log_events_per_job", l "cst.log_events_per_job");
    ] )

let () =
  List.iter
    (fun (name, kind) ->
      let fp1, c1 = exact_counts kind in
      let fp2, c2 = exact_counts kind in
      check (name ^ ": job lists differ") (fp1 = fp2);
      List.iter2
        (fun (k, v1) (_, v2) ->
          check (Printf.sprintf "%s: %s %g then %g" name k v1 v2) (v1 = v2))
        c1 c2;
      Printf.printf "%s: %s\n%!" name
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) c1)))
    Work.kinds;
  if !failures > 0 then exit 1
