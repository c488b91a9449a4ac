type value =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Rows of (string * value) list list
type section = { name : string; fields : (string * value) list }
type t = section list

let section name fields = { name; fields }

let throughput ~jobs ~failed ~domains ~elapsed_s =
  let rate = if elapsed_s > 0.0 then float_of_int jobs /. elapsed_s else 0.0 in
  section "service"
    [
      ("jobs", Int jobs);
      ("failed", Int failed);
      ("domains", Int domains);
      ("elapsed_s", Float elapsed_s);
      ("jobs_per_sec", Float rate);
    ]

(* %.17g round-trips any float but is noisy; try shorter forms first,
   like the stdlib's float printers do. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec value_to_json = function
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_finite f then float_to_string f
      else Printf.sprintf "\"%s\"" (float_to_string f)
  | Bool b -> string_of_bool b
  | String s -> Printf.sprintf "\"%s\"" (escape s)
  | Rows rows -> "[" ^ String.concat ", " (List.map fields_to_json rows) ^ "]"

and fields_to_json fields =
  let b = Buffer.create 128 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %s" (escape k)
                             (value_to_json v)))
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf "\"%s\": %s" (escape s.name) (fields_to_json s.fields)))
    t;
  Buffer.add_char b '}';
  Buffer.contents b

let pp_value fmt = function
  | Int i -> Format.pp_print_int fmt i
  | Float f -> Format.pp_print_string fmt (float_to_string f)
  | Bool b -> Format.pp_print_bool fmt b
  | String s -> Format.pp_print_string fmt s
  | Rows _ as v -> Format.pp_print_string fmt (value_to_json v)

let pp_section fmt s =
  Format.fprintf fmt "@[<h>%s:" s.name;
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%a" k pp_value v) s.fields;
  Format.fprintf fmt "@]"

let pp fmt t =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_section fmt t
