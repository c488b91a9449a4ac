(* Benchmark worker: one subcommand per process, so that every timed run
   starts from a fresh heap.  [perfbench/run.py] drives it:

     main.exe refs  --workload W --seed N --refs FILE
     main.exe timed --workload W --seed N --refs FILE --scratch DIR
     main.exe pool  --workload W --seed N --refs FILE --scratch DIR
     main.exe trace --workload W --seed N --refs FILE --scratch DIR --spans FILE

   [refs] writes the reference table of the seed's job list to FILE; it
   does nothing when FILE already holds the table.  [timed] runs the
   end-to-end measurement; [pool] runs a closed loop on the service's
   domain pool for the per-layer metrics.  [timed], [pool] and [trace]
   print one JSON object on their last line of standard output. *)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and refs = ref "" in
  let scratch = ref "" and spans = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--refs", Arg.Set_string refs, "FILE reference table");
      ("--scratch", Arg.Set_string scratch, "DIR directory for the plan store");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
    ]
  in
  let usage = "main.exe (refs|timed|pool|trace) --workload W --seed N --refs FILE ..." in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun a -> raise (Arg.Bad a)) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_endline msg;
     exit 2);
  let kind =
    match Perfbench.Work.of_name !workload with
    | Some k -> k
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload;
        exit 2
  in
  if !refs = "" then (prerr_endline usage; exit 2);
  (* CPU time since process start; input generation is excluded from
     set-up, the rest is not *)
  let pre_s = Perfbench.Meter.cpu () in
  let w = Perfbench.Work.make kind ~seed:!seed in
  let table () =
    match Perfbench.Refs.load ~path:!refs w with
    | Some t -> t
    | None -> failwith "reference table missing or stale; run [refs] first"
  in
  (* The recurring workload gets a fresh plan-store directory, removed
     when the run ends. *)
  let with_store f =
    if kind <> Perfbench.Work.Recurring then f None
    else
      let d = Filename.concat !scratch (Printf.sprintf "store-%d" (Unix.getpid ())) in
      Unix.mkdir d 0o755;
      let r = f (Some d) in
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Unix.rmdir d;
      r
  in
  match cmd with
  | "refs" ->
      if Option.is_none (Perfbench.Refs.load ~path:!refs w) then
        Perfbench.Refs.write ~path:!refs w (Perfbench.Refs.compute w)
  | ("timed" | "pool") as cmd ->
      let table = table () in
      let pool = cmd = "pool" in
      let r =
        with_store (fun store_dir ->
            Perfbench.Timed.run ~pool ~pre_s ?store_dir w table)
      in
      print_endline (Perfbench.Meter.to_string (Perfbench.Timed.to_json r))
  | "trace" ->
      let table = table () in
      let r = with_store (fun store_dir -> Perfbench.Traced.run ?store_dir w table) in
      prerr_string r.table;
      if !spans <> "" then Perfbench.Traced.write_spans !spans r.spans;
      print_endline (Perfbench.Meter.to_string (Perfbench.Traced.to_json r))
  | _ ->
      prerr_endline usage;
      exit 2
