(* Clock, order statistics and JSON output shared by the timed and traced
   runs. *)

(* CLOCK_MONOTONIC in nanoseconds; the stub neither allocates nor boxes. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now () = float_of_int (now_ns ()) *. 1e-9

(* CPU time of the whole process (every domain and thread), in seconds.
   Time the host gives to other guests does not count. *)
let cpu () = Sys.time ()

(* Nearest-rank percentile, [p] in [0, 100]; 0 on an empty sample. *)
let percentile xs p =
  if Array.length xs = 0 then 0.0 else Cst_util.Stats.percentile xs p

let mean xs =
  if Array.length xs = 0 then 0.0 else Cst_util.Stats.mean xs

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type json =
  | Num of float
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec add_json b = function
  | Num f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add_json b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_json b (Str k);
          Buffer.add_char b ':';
          add_json b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  add_json b j;
  Buffer.contents b

let nums xs = Arr (Array.to_list (Array.map (fun x -> Num x) xs))
let metrics kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs)
