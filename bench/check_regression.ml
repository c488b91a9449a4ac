(* Perf-regression gate over BENCH_engine.json files.

   check_regression.exe --validate FILE [--out VERDICT.json]
     Every section of [table] must be present and every invariant must
     hold: sane timings and rates, the correctness certificates, and the
     headline claims (plan-cache replay >= 3x compile with >= 80% hits,
     rounds = width on every tree shape and ceil(bin/c) on a capacity-c
     fat tree, delta admission beating immediate on the bursty trace, the
     placement optimizer's width and power wins).  Full-size-only gates
     are skipped on --fast files; the multi-domain scaling gate is skipped
     at nproc=1.

   check_regression.exe BASELINE FRESH [--threshold PCT] [--out VERDICT.json]
     Each baseline row is matched by its section's key fields.  A compared
     metric more than PCT percent (default 25) worse, a lost correctness
     certificate or a baseline row missing from the fresh run fails.
     Multi-domain rows are skipped while either file was taken at nproc=1.

   Each violated gate is reported on its own line ("check_regression: FAIL
   <gate>: <detail>"), then a summary line, then exit 1.  With --out, a
   machine-readable verdict listing every evaluated gate as pass, fail or
   skipped is written, on success too.  bench/main.ml writes one JSON
   object per line, so a small line scanner reads the file and no JSON
   library is needed. *)

(* --- Reading a bench file --------------------------------------------- *)

type value = Num of float | Str of string | Bool of bool | Other
type row = (string * value) list

exception Malformed

let rec skip_ws s i = if s.[i] = ' ' then skip_ws s (i + 1) else i

(* [value s i] scans the JSON value starting at [s.[i]] and returns it
   with the index just past it.  Nested arrays and objects (par_engine's
   grid) read as [Other]. *)
let rec value s i =
  match s.[i] with
  | '"' ->
      let j = String.index_from s (i + 1) '"' in
      (Str (String.sub s (i + 1) (j - i - 1)), j + 1)
  | '{' -> (Other, snd (fields s i))
  | '[' -> (Other, items s (i + 1) ']' (fun j -> snd (value s j)))
  | _ ->
      let j = ref i in
      while !j < String.length s && not (String.contains ",}] " s.[!j]) do
        incr j
      done;
      let v =
        match String.sub s i (!j - i) with
        | "true" -> Bool true
        | "false" -> Bool false
        | tok -> (
            match float_of_string_opt tok with Some x -> Num x | None -> Other)
      in
      (v, !j)

(* Comma-separated items up to [close]; [item] scans one and returns the
   index after it. *)
and items s i close item =
  let i = skip_ws s i in
  if s.[i] = close then i + 1
  else
    let i = skip_ws s (item i) in
    if s.[i] = ',' then items s (i + 1) close item
    else if s.[i] = close then i + 1
    else raise Malformed

and fields s i =
  let acc = ref [] in
  let stop =
    items s (i + 1) '}' (fun j ->
        match value s j with
        | Str k, j ->
            let j = skip_ws s j in
            if s.[j] <> ':' then raise Malformed;
            let v, j = value s (skip_ws s (j + 1)) in
            acc := (k, v) :: !acc;
            j
        | _ -> raise Malformed)
  in
  (List.rev !acc, stop)

type file = {
  path : string;
  fast : bool;
  nproc : int option;
      (** core count of the producing host.  At nproc=1 a multi-domain
          row measures contention, not capability. *)
  sections : (string * row list) list;
}

(* An unreadable file ends the run like a malformed line: one line
   naming the file, exit 2.  Open errors name the file already; read
   errors (a directory) do not. *)
let unreadable path e =
  Printf.eprintf "check_regression: cannot read %s\n"
    (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e);
  exit 2

(* Top-level lines are ["name": value].  A section is an array whose
   rows follow one per line until its closing bracket, or a single
   object on its own header line. *)
let parse path =
  let ic = try open_in path with Sys_error e -> unreadable path e in
  let meta = ref [] and sections = Hashtbl.create 16 and current = ref None in
  let add name row =
    Hashtbl.replace sections name
      (row :: Option.value ~default:[] (Hashtbl.find_opt sections name))
  in
  (try
     while true do
       let line = String.trim (input_line ic) in
       try
         match (line, !current) with
         | "", _ -> ()
         | _, Some name when line.[0] = '{' -> add name (fst (fields line 0))
         | _ when line.[0] = ']' -> current := None
         | _ when line.[0] = '"' -> (
             match value line 0 with
             | Str name, j ->
                 let j = skip_ws line (j + 1) in
                 if line.[j] = '[' && j = String.length line - 1 then
                   current := Some name
                 else if line.[j] = '{' then add name (fst (fields line j))
                 else meta := (name, fst (value line j)) :: !meta
             | _ -> raise Malformed)
         | _ -> ()
       with Malformed | Invalid_argument _ | Not_found ->
         Printf.eprintf "check_regression: malformed line in %s: %s\n" path
           line;
         exit 2
     done
   with
   | End_of_file -> ()
   | Sys_error e -> unreadable path e);
  close_in ic;
  {
    path;
    fast = List.assoc_opt "fast" !meta = Some (Bool true);
    nproc =
      (match List.assoc_opt "nproc" !meta with
      | Some (Num n) -> Some (int_of_float n)
      | _ -> None);
    sections =
      Hashtbl.fold
        (fun name rows acc -> (name, List.rev rows) :: acc)
        sections [];
  }

let rows f name = Option.value ~default:[] (List.assoc_opt name f.sections)

(* A missing or non-numeric field reads as nan, which fails every "must
   hold" predicate below. *)
let num r k = match List.assoc_opt k r with Some (Num x) -> x | _ -> Float.nan
let str r k = match List.assoc_opt k r with Some (Str s) -> s | _ -> "?"
let flag r k = List.assoc_opt k r = Some (Bool true)

(* --- Gates ------------------------------------------------------------ *)

type verdict = Pass | Fail of string | Skipped

let must ok fmt = Printf.ksprintf (fun d -> if ok then Pass else Fail d) fmt
let pos x = Float.is_finite x && x > 0.0

(* A row invariant: [claim] must hold, as [holds] decides from the row's
   numeric fields.  [holds] reads them through [v], which records them,
   so a failure's detail echoes every value it looked at.  The gate is
   skipped where [applies] is false: a trace- or policy-specific claim, a
   full-size-only gate on a --fast file, or a speedup whose timings are
   invalid (their own gate reports those). *)
let inv ?(applies = fun _ _ -> true) name claim holds =
  ( name,
    fun f r ->
      let read = ref [] in
      let v k =
        let x = num r k in
        if not (List.mem_assoc k !read) then read := (k, x) :: !read;
        x
      in
      if not (applies f r) then Skipped
      else if holds v then Pass
      else
        let seen =
          List.rev_map (fun (k, x) -> Printf.sprintf "%s %g" k x) !read
        in
        Fail (Printf.sprintf "%s (%s)" claim (String.concat ", " seen)) )

let positive field = inv field ("bad " ^ field) (fun v -> pos (v field))
let full_size f _ = not f.fast
let timed slow quick _ r = pos (num r slow) && pos (num r quick)
let trace t _ r = str r "trace" = t

let epochs =
  [
    inv "epochs" "epochs must lie in [1, jobs]" (fun v ->
        v "epochs" >= 1.0 && v "epochs" <= v "jobs");
    inv "epochs"
      ~applies:(fun _ r -> str r "policy" = "immediate")
      "immediate must pay one reconfiguration per job"
      (fun v -> v "epochs" = v "jobs");
  ]

type better = Lower | Higher

type section = {
  name : string;
  prefix : string;  (** a row's gate names start [prefix/key values] *)
  key : string list;  (** the fields that name a row *)
  metrics : (string * better) list;  (** compared against a baseline *)
  certificates : (string * string) list;
      (** boolean fields that must be true, with what they certify *)
  multi_domain : bool;  (** rows with domains > 1 are skipped at nproc=1 *)
  checks : (string * (file -> row -> verdict)) list;
      (** the validate invariants, evaluated on every row *)
  cross : file -> row list -> (string * verdict) list;
      (** validate gates over the section's rows together *)
}

let section ?prefix ?(key = []) ?(metrics = []) ?(certificates = [])
    ?(multi_domain = false) ?(cross = fun _ _ -> []) name checks =
  let prefix = Option.value ~default:name prefix in
  { name; prefix; key; metrics; certificates; multi_domain; checks; cross }

let row_id s r =
  String.concat "/"
    (s.prefix
    :: List.map
         (fun k ->
           match List.assoc_opt k r with
           | Some (Str v) -> v
           | Some (Num n) ->
               Printf.sprintf "%.0f%s" n (if k = "domains" then "d" else "")
           | _ -> "?")
         s.key)

(* Running wider must not collapse throughput: per tree size, the best
   multi-domain rate must reach 90% of the domains:1 rate. *)
let scaling f rows =
  List.filter_map
    (fun r ->
      let pes = num r "pes" and d1 = num r "jobs_per_sec" in
      let multi =
        List.fold_left
          (fun acc m ->
            if num m "pes" = pes && num m "domains" > 1.0 then
              Float.max acc (num m "jobs_per_sec")
            else acc)
          neg_infinity rows
      in
      if num r "domains" <> 1.0 then None
      else
        Some
          ( Printf.sprintf "service_throughput/%.0f/scaling" pes,
            if f.nproc = Some 1 || not (Float.is_finite multi) then Skipped
            else
              must (multi >= 0.9 *. d1)
                "best multi-domain throughput %.1f jobs/s is below 90%% of \
                 the domains:1 rate %.1f"
                multi d1 ))
    rows

(* On the bursty trace at domains:1 the delta-aware policy must beat
   immediate on total power: immediate pays one reconfiguration per job,
   delta one per burst. *)
let delta_beats_immediate _ rows =
  let find policy pes =
    List.find_opt
      (fun r ->
        str r "process" = "bursty" && str r "policy" = policy
        && num r "domains" = 1.0 && num r "pes" = pes)
      rows
  in
  List.map
    (fun pes ->
      match (find "delta" pes, find "immediate" pes) with
      | Some d, Some i ->
          let dp = num d "total_power" and ip = num i "total_power" in
          ( Printf.sprintf "streaming/bursty/%.0f/delta_total_power" pes,
            must (dp < ip)
              "delta policy must beat immediate on total power on the \
               bursty trace: %.1f vs %.1f"
              dp ip )
      | _ ->
          ( Printf.sprintf "streaming/bursty/%.0f" pes,
            Fail "missing the bursty delta/immediate row pair at domains:1" ))
    (List.sort_uniq compare (List.map (fun r -> num r "pes") rows))

(* The topology section needs its binary reference row, and a fat tree
   with uplink capacity c must cut the binary round count to exactly
   ceil(bin/c): Theorem 5 divided by the oversubscription ratio. *)
let cap_rounds _ rows =
  let bin =
    List.find_opt
      (fun r -> String.starts_with ~prefix:"bin:" (str r "shape"))
      rows
  in
  let has_bin =
    must (bin <> None) "topology section has no binary-tree reference row"
  in
  (if rows = [] then [] else [ ("topology/bin", has_bin) ])
  @ List.map
      (fun r ->
        let cap = num r "cap" and rounds = num r "rounds" in
        ( Printf.sprintf "topology/%s/cap_rounds" (str r "shape"),
          match bin with
          | Some b when cap > 1.0 ->
              let expect = Float.ceil (num b "rounds" /. cap) in
              must (rounds = expect)
                "capacity-%.0f uplinks must cut the binary round count to \
                 ceil(%.0f/%.0f) = %.0f, measured %.0f"
                cap (num b "rounds") cap expect rounds
          | _ -> Skipped ))
      rows

(* One entry per section, in the order bench/main.ml writes them. *)
let table =
  [
    section "service_throughput" ~prefix:"service_throughput/service"
      ~key:[ "pes"; "domains" ] ~metrics:[ ("jobs_per_sec", Higher) ]
      ~multi_domain:true ~cross:scaling
      [ positive "jobs_per_sec" ];
    section "streaming" ~key:[ "process"; "policy"; "pes"; "domains" ]
      ~metrics:[ ("p99_ms", Lower); ("jobs_per_sec", Higher) ]
      ~multi_domain:true ~cross:delta_beats_immediate
      (inv "sojourn" "p50 must be positive and p99 at least p50" (fun v ->
           pos (v "p50_ms") && Float.is_finite (v "p99_ms")
           && v "p99_ms" >= v "p50_ms")
      :: positive "jobs_per_sec" :: positive "total_power" :: epochs);
    section "streaming_virtual" ~key:[ "process"; "policy"; "pes"; "domains" ]
      ~metrics:[ ("jobs_per_sec", Higher) ] ~multi_domain:true
      (inv "jobs_per_sec" "bad replay" (fun v ->
           pos (v "jobs_per_sec") && pos (v "wall_s"))
      :: inv "jobs" ~applies:full_size
           "a full-size virtual replay must drive >= 100000 jobs" (fun v ->
             v "jobs" >= 100_000.0)
      :: epochs);
    section "placement" ~key:[ "trace"; "pes" ] ~metrics:[ ("ratio", Higher) ]
      ~certificates:
        [ ("digest_ok", "placed job must equal the permuted set run directly") ]
      [
        inv "width" "widths must be at least 1" (fun v ->
            v "width_identity" >= 1.0 && v "width_static" >= 1.0);
        inv "no_regression" "static placement must never exceed identity width"
          (fun v -> v "width_static" <= v "width_identity");
        inv "power" "static placement must never spend more power" (fun v ->
            v "power_static" <= v "power_identity");
        inv "ratio" ~applies:(trace "skewed")
          "the skewed trace must place at >= 1.5x width reduction" (fun v ->
            v "width_identity" >= 1.5 *. v "width_static");
        inv "power_win" ~applies:(trace "skewed")
          "the skewed trace must strictly cut power" (fun v ->
            v "power_static" < v "power_identity");
        inv "auto_no_regression" ~applies:(trace "uniform")
          "self-adjusting placement must never exceed identity width"
          (fun v -> v "width_auto" <= v "width_identity");
        inv "auto_beats_static" ~applies:(trace "phase")
          "self-adjusting placement must beat the static compromise"
          (fun v -> v "width_auto" < v "width_static");
        inv "remaps" ~applies:(trace "phase")
          "the phase-changing trace must trigger a remap" (fun v ->
            v "remaps" >= 1.0);
      ];
    section "log_overhead" ~metrics:[ ("ns_per_append", Lower) ]
      [
        inv "ns_per_append" "bad log_overhead" (fun v ->
            pos (v "ns_per_append") && v "bytes_per_event" > 0.0);
      ];
    section "plan_cache"
      ~metrics:
        [ ("compile_ns", Lower); ("replay_ns", Lower); ("hit_rate", Higher) ]
      [
        inv "compile_ns" "bad timings" (fun v ->
            pos (v "compile_ns") && pos (v "replay_ns"));
        inv "speedup" ~applies:(timed "compile_ns" "replay_ns")
          "replay must be >= 3x faster than compile" (fun v ->
            v "compile_ns" /. v "replay_ns" >= 3.0);
        inv "hit_rate" "the repetitive trace must hit >= 80%" (fun v ->
            v "hit_rate" >= 0.80);
      ];
    section "par_engine" ~metrics:[ ("seq_ns", Lower); ("par_d1_ns", Lower) ]
      ~certificates:
        [
          ("digest_match", "merged log must be digest-identical to sequential");
          ("work_conserved", "per-block event counts must sum to sequential");
        ]
      [
        inv "seq_ns" "bad timings" (fun v ->
            pos (v "seq_ns") && pos (v "par_d1_ns"));
        (* On the --fast grid the blocks are a few dozen PEs and the
           constant per-block cost dominates. *)
        inv "overhead" ~applies:full_size
          "domains:1 must stay within 10% of the sequential engine" (fun v ->
            v "overhead" <= 1.10);
      ];
    section "plan_store" ~key:[ "pes" ]
      ~metrics:
        [
          ("recompile_ns", Lower);
          ("warm_ns", Lower);
          ("codec_ns_per_event", Lower);
        ]
      ~certificates:
        [ ("digest_ok", "decoded plan's replay must match a fresh run's") ]
      [
        inv "timings" "bad timings" (fun v ->
            pos (v "recompile_ns") && pos (v "warm_ns")
            && v "codec_ns_per_event" > 0.0);
        (* A file-system timing: full-size runs only. *)
        inv "warm_speedup"
          ~applies:(fun f r ->
            full_size f r && timed "recompile_ns" "warm_ns" f r)
          "a warm-store cold start must be >= 3x faster than recompiling"
          (fun v -> v "recompile_ns" /. v "warm_ns" >= 3.0);
      ];
    section "topology" ~key:[ "shape" ] ~metrics:[ ("ns_per_op", Lower) ]
      ~cross:cap_rounds
      [
        positive "ns_per_op";
        inv "width" "capacity-weighted width must be at least 1" (fun v ->
            v "width" >= 1.0);
        inv "rounds" "the scheduler must meet the width bound" (fun v ->
            v "rounds" = v "width");
        inv "power" "a non-empty schedule must spend power" (fun v ->
            v "connects" +. v "writes" > 0.0);
      ];
    section "results" ~key:[ "kernel"; "pes"; "width" ]
      ~metrics:[ ("ns_per_op", Lower) ]
      [ positive "ns_per_op" ];
  ]

(* --- Drivers ---------------------------------------------------------- *)

let note_single_core () =
  print_endline "check_regression: note: skipping multi-domain gates (nproc=1)"

let validate f =
  if f.nproc = Some 1 then note_single_core ();
  List.concat_map
    (fun s ->
      let rows = rows f s.name in
      ((s.name, must (rows <> []) "%s has no %s rows" f.path s.name)
      :: List.concat_map
           (fun r ->
             let gate g v = (row_id s r ^ "/" ^ g, v) in
             List.map (fun (c, claim) -> gate c (must (flag r c) "%s" claim))
               s.certificates
             @ List.map (fun (g, check) -> gate g (check f r)) s.checks)
           rows)
      @ s.cross f rows)
    table

let compare_files ~threshold base cur =
  let single_core = base.nproc = Some 1 || cur.nproc = Some 1 in
  let multi s r = s.multi_domain && single_core && num r "domains" > 1.0 in
  if List.exists (fun s -> List.exists (multi s) (rows base s.name)) table then
    note_single_core ();
  Printf.printf "%-52s %14s %14s %8s\n" "gate" "baseline" "fresh" "ratio";
  List.concat_map
    (fun s ->
      let fresh = List.map (fun r -> (row_id s r, r)) (rows cur s.name) in
      List.concat_map
        (fun b ->
          let id = row_id s b in
          match List.assoc_opt id fresh with
          | _ when multi s b -> [ (id, Skipped) ]
          | None ->
              Printf.printf "%-52s %14.2f %14s %8s  MISSING\n" id
                (num b (fst (List.hd s.metrics)))
                "-" "-";
              [ (id, Fail "in the baseline, missing from the fresh run") ]
          | Some f ->
              List.map
                (fun (m, better) ->
                  let bv = num b m and fv = num f m in
                  let ratio = fv /. bv and tol = threshold /. 100.0 in
                  let bad =
                    if better = Lower then ratio > 1.0 +. tol
                    else ratio < 1.0 -. tol
                  in
                  Printf.printf "%-52s %14.2f %14.2f %7.2fx%s\n" (id ^ "/" ^ m)
                    bv fv ratio
                    (if bad then "  REGRESSION" else "");
                  ( id ^ "/" ^ m,
                    must (not bad) "%.2f -> %.2f (%.2fx, threshold %.0f%%)" bv
                      fv ratio threshold ))
                s.metrics
              @ List.map
                  (fun (c, claim) ->
                    ( id ^ "/" ^ c,
                      must (flag f c) "fresh run lost its certificate: %s" claim
                    ))
                  s.certificates)
        (rows base s.name))
    table

let quote s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  "\"" ^ Buffer.contents b ^ "\""

(* The machine-readable verdict: every evaluated gate, then the
   violations again with their detail. *)
let write_verdict file ~mode ~extra gates violations =
  let array render = function
    | [] -> "[]"
    | xs ->
        "[\n" ^ String.concat ",\n" (List.map (fun x -> "    " ^ render x) xs)
        ^ "\n  ]"
  in
  let oc = open_out file in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"schema\": \"cst-padr/check-regression/v2\",\n";
  p "  \"mode\": \"%s\",\n" mode;
  List.iter (fun (k, v) -> p "  \"%s\": %s,\n" k v) extra;
  p "  \"pass\": %b,\n" (violations = []);
  p "  \"gates_violated\": %d,\n" (List.length violations);
  p "  \"violations\": %s,\n"
    (array
       (fun (g, d) ->
         Printf.sprintf "{\"gate\": %s, \"detail\": %s}" (quote g) (quote d))
       violations);
  p "  \"gates\": %s\n}\n"
    (array
       (fun (g, v) ->
         Printf.sprintf "{\"gate\": %s, \"verdict\": \"%s\"}" (quote g)
           (match v with
           | Pass -> "pass"
           | Fail _ -> "fail"
           | Skipped -> "skipped"))
       gates);
  close_out oc

let finish ?out ~mode ~extra ~ok gates =
  let violations =
    List.filter_map (function g, Fail d -> Some (g, d) | _ -> None) gates
  in
  Option.iter (fun f -> write_verdict f ~mode ~extra gates violations) out;
  if violations = [] then print_endline ok
  else begin
    List.iter
      (fun (g, d) -> Printf.printf "check_regression: FAIL %s: %s\n" g d)
      violations;
    Printf.printf "check_regression: %d gate(s) violated\n"
      (List.length violations);
    exit 1
  end

let () =
  let out = ref None in
  let threshold = ref 25.0 in
  let validate_file = ref None in
  let positional = ref [] in
  let usage () =
    prerr_endline
      "usage: check_regression (--validate FILE | BASELINE FRESH \
       [--threshold PCT]) [--out VERDICT.json]";
    exit 2
  in
  let rec go = function
    | [] -> ()
    | "--out" :: file :: rest ->
        out := Some file;
        go rest
    | "--threshold" :: pct :: rest -> (
        match float_of_string_opt pct with
        | Some t ->
            threshold := t;
            go rest
        | None -> usage ())
    | "--validate" :: file :: rest ->
        validate_file := Some file;
        go rest
    | a :: rest ->
        if String.length a > 1 && a.[0] = '-' then usage ();
        positional := a :: !positional;
        go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!validate_file, List.rev !positional) with
  | Some file, [] ->
      let f = parse file in
      let nproc = Option.fold ~none:"null" ~some:string_of_int f.nproc in
      finish ?out:!out ~mode:"validate"
        ~extra:[ ("file", quote file); ("nproc", nproc) ]
        ~ok:(Printf.sprintf "check_regression: %s ok" file)
        (validate f)
  | None, [ baseline; fresh ] ->
      let threshold = !threshold in
      finish ?out:!out ~mode:"compare"
        ~extra:
          [
            ("baseline", quote baseline);
            ("fresh", quote fresh);
            ("threshold_pct", Printf.sprintf "%.1f" threshold);
          ]
        ~ok:
          (Printf.sprintf "check_regression: no kernel regressed beyond %.0f%%"
             threshold)
        (compare_files ~threshold (parse baseline) (parse fresh))
  | _ -> usage ()
