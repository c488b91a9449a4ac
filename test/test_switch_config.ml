open Helpers
open Cst

let set_ = Switch_config.set

let test_empty () =
  check_true "no connections" (Switch_config.is_empty Switch_config.empty);
  check_int "count" 0 (Switch_config.connection_count Switch_config.empty);
  List.iter
    (fun o -> check_true "no driver" (Switch_config.driver Switch_config.empty o = None))
    Side.all

let test_set_and_query () =
  let c = set_ Switch_config.empty ~output:Side.R ~input:Side.L in
  check_true "driver" (Switch_config.driver c Side.R = Some Side.L);
  check_true "output_of" (Switch_config.output_of c Side.L = Some Side.R);
  check_true "others empty" (Switch_config.driver c Side.P = None);
  check_int "count" 1 (Switch_config.connection_count c)

let test_same_side_rejected () =
  List.iter
    (fun s ->
      check_raises_invalid "same side" (fun () ->
          set_ Switch_config.empty ~output:s ~input:s))
    Side.all

let test_double_drive_rejected () =
  let c = set_ Switch_config.empty ~output:Side.R ~input:Side.L in
  check_raises_invalid "output already driven" (fun () ->
      set_ c ~output:Side.R ~input:Side.P);
  check_raises_invalid "input already used" (fun () ->
      set_ c ~output:Side.P ~input:Side.L)

let test_three_connections () =
  (* l_i -> r_o, r_i -> p_o, p_i -> l_o : a fully loaded switch. *)
  let c =
    set_
      (set_
         (set_ Switch_config.empty ~output:Side.R ~input:Side.L)
         ~output:Side.P ~input:Side.R)
      ~output:Side.L ~input:Side.P
  in
  check_int "count" 3 (Switch_config.connection_count c)

let test_equal () =
  let a = set_ Switch_config.empty ~output:Side.R ~input:Side.L in
  let b = set_ Switch_config.empty ~output:Side.R ~input:Side.L in
  check_true "equal" (Switch_config.equal a b);
  check_true "not equal to empty" (not (Switch_config.equal a Switch_config.empty))

let test_diff_counts () =
  let open Switch_config in
  let a = set_ empty ~output:Side.R ~input:Side.L in
  let b = set_ empty ~output:Side.R ~input:Side.P in
  let d = diff ~old_config:a ~new_config:b in
  check_int "driver change is one connect" 1 d.connects;
  check_int "no disconnect on change" 0 d.disconnects;
  let d2 = diff ~old_config:a ~new_config:empty in
  check_int "teardown connects" 0 d2.connects;
  check_int "teardown disconnects" 1 d2.disconnects;
  let d3 = diff ~old_config:empty ~new_config:a in
  check_int "setup connects" 1 d3.connects;
  let d4 = diff ~old_config:a ~new_config:a in
  check_int "no-op connects" 0 d4.connects;
  check_int "no-op disconnects" 0 d4.disconnects

let test_merge_lazy_keeps () =
  let open Switch_config in
  let prev = set_ empty ~output:Side.R ~input:Side.L in
  let merged = merge_lazy ~prev ~want:empty in
  check_true "persists" (equal merged prev)

let test_merge_lazy_overrides_output () =
  let open Switch_config in
  let prev = set_ empty ~output:Side.R ~input:Side.L in
  let want = set_ empty ~output:Side.R ~input:Side.P in
  let merged = merge_lazy ~prev ~want in
  check_true "want wins output" (driver merged Side.R = Some Side.P)

let test_merge_lazy_steals_input () =
  let open Switch_config in
  (* prev: l_i -> r_o; want: l_i -> p_o.  Keeping the old connection would
     fan the input out to two outputs. *)
  let prev = set_ empty ~output:Side.R ~input:Side.L in
  let want = set_ empty ~output:Side.P ~input:Side.L in
  let merged = merge_lazy ~prev ~want in
  check_true "input stolen" (driver merged Side.R = None);
  check_true "want present" (driver merged Side.P = Some Side.L)

let test_merge_lazy_disjoint_union () =
  let open Switch_config in
  let prev = set_ empty ~output:Side.R ~input:Side.L in
  let want = set_ empty ~output:Side.L ~input:Side.P in
  let merged = merge_lazy ~prev ~want in
  check_int "both kept" 2 (connection_count merged)

let test_pp () =
  let c = set_ Switch_config.empty ~output:Side.R ~input:Side.L in
  check_true "pp nonempty"
    (Format.asprintf "%a" Switch_config.pp c = "{L->R}");
  check_true "pp empty"
    (Format.asprintf "%a" Switch_config.pp Switch_config.empty = "{}")

let test_side_index_round_trip () =
  List.iter
    (fun s -> check_true "round trip" (Side.of_index (Side.index s) = s))
    Side.all;
  check_raises_invalid "bad index" (fun () -> Side.of_index 3)

(* --- oracle: the list-based definitions ------------------------------ *)

(* A reference model: one optional driver per output, indexed by
   [Side.index], with list-based operations written straight from the
   definitions.  The packed implementation must agree with it on every
   configuration. *)
module Ref = struct
  type t = Side.t option array

  let driver (t : t) o = t.(Side.index o)

  let output_of t input =
    List.find_opt (fun o -> driver t o = Some input) Side.all

  let set t ~output ~input =
    if Side.equal output input then Error "same-side"
    else if driver t output <> None then Error "output driven"
    else if output_of t input <> None then Error "input used"
    else begin
      let t = Array.copy t in
      t.(Side.index output) <- Some input;
      Ok t
    end

  let connection_count t =
    List.length (List.filter (fun o -> driver t o <> None) Side.all)

  let legal t =
    List.for_all
      (fun o ->
        match driver t o with
        | None -> true
        | Some i ->
            (not (Side.equal i o))
            && List.length
                 (List.filter (fun o' -> driver t o' = Some i) Side.all)
               = 1)
      Side.all

  let merge_lazy ~prev ~want =
    let used_input i = output_of want i <> None in
    List.fold_left
      (fun acc o ->
        match (acc, driver want o, driver prev o) with
        | Error _, _, _ -> acc
        | Ok _, Some _, _ | Ok _, None, None -> acc
        | Ok a, None, Some i ->
            if used_input i then acc else set a ~output:o ~input:i)
      (Ok want) Side.all

  let diff ~old_config ~new_config =
    List.fold_left
      (fun (c, d) o ->
        match (driver old_config o, driver new_config o) with
        | None, None -> (c, d)
        | None, Some _ -> (c + 1, d)
        | Some _, None -> (c, d + 1)
        | Some a, Some b -> if Side.equal a b then (c, d) else (c + 1, d))
      (0, 0) Side.all

  (* All 64 driver assignments, legal or not. *)
  let all =
    let choices = [ None; Some Side.L; Some Side.R; Some Side.P ] in
    List.concat_map
      (fun l ->
        List.concat_map
          (fun r -> List.map (fun p -> [| l; r; p |]) choices)
          choices)
      choices
end

let pack (r : Ref.t) =
  List.fold_left
    (fun cfg o ->
      Switch_config.with_driver cfg ~output:o ~input:(Ref.driver r o))
    Switch_config.empty Side.all

let legal = List.filter Ref.legal Ref.all

let agrees msg (r : Ref.t) cfg =
  List.iter
    (fun o ->
      check_true (msg ^ ": driver")
        (Switch_config.driver cfg o = Ref.driver r o);
      check_true (msg ^ ": output_of")
        (Switch_config.output_of cfg o = Ref.output_of r o))
    Side.all;
  check_int (msg ^ ": connection_count") (Ref.connection_count r)
    (Switch_config.connection_count cfg);
  check_bool (msg ^ ": is_empty") (Ref.connection_count r = 0)
    (Switch_config.is_empty cfg)

let test_oracle_queries () =
  (* 1 empty + 6 single + 9 double + 2 full (the two 3-cycles) *)
  check_int "legal configurations" 18 (List.length legal);
  List.iter (fun r -> agrees "packed" r (pack r)) Ref.all;
  (* codes are canonical: 64 distinct assignments, 64 distinct codes *)
  let codes = List.map (fun r -> (pack r :> int)) Ref.all in
  check_int "distinct codes" 64 (List.length (List.sort_uniq compare codes));
  List.iter
    (fun c -> check_int "of_code round trip" c (Switch_config.of_code c :> int))
    codes;
  check_raises_invalid "code 64" (fun () -> Switch_config.of_code 64);
  check_raises_invalid "code -1" (fun () -> Switch_config.of_code (-1))

let test_oracle_set () =
  List.iter
    (fun r ->
      let cfg = pack r in
      List.iter
        (fun output ->
          List.iter
            (fun input ->
              match Ref.set r ~output ~input with
              | Error why ->
                  check_raises_invalid ("illegal set: " ^ why) (fun () ->
                      Switch_config.set cfg ~output ~input)
              | Ok r' ->
                  check_true "set"
                    (Switch_config.equal
                       (Switch_config.set cfg ~output ~input)
                       (pack r')))
            Side.all)
        Side.all)
    Ref.all

let test_oracle_pairs () =
  List.iter
    (fun p ->
      List.iter
        (fun w ->
          let prev = pack p and want = pack w in
          (match Ref.merge_lazy ~prev:p ~want:w with
          | Ok m ->
              check_true "merge_lazy"
                (Switch_config.equal
                   (Switch_config.merge_lazy ~prev ~want)
                   (pack m))
          | Error why -> Alcotest.failf "legal merge raised: %s" why);
          let c, d = Ref.diff ~old_config:p ~new_config:w in
          let delta = Switch_config.diff ~old_config:prev ~new_config:want in
          check_int "diff connects" c delta.connects;
          check_int "diff disconnects" d delta.disconnects;
          check_bool "equal" (p = w) (Switch_config.equal prev want))
        legal)
    legal

(* An illegal [prev] (only [with_driver] or [of_code] builds one)
   raises in [merge_lazy] exactly where the definition does. *)
let test_oracle_illegal_merge () =
  List.iter
    (fun p ->
      List.iter
        (fun w ->
          let prev = pack p and want = pack w in
          match Ref.merge_lazy ~prev:p ~want:w with
          | Ok m ->
              check_true "merge_lazy"
                (Switch_config.equal
                   (Switch_config.merge_lazy ~prev ~want)
                   (pack m))
          | Error _ ->
              check_raises_invalid "illegal merge" (fun () ->
                  Switch_config.merge_lazy ~prev ~want))
        legal)
    (List.filter (fun r -> not (Ref.legal r)) Ref.all)

let suite =
  [
    case "empty" test_empty;
    case "set and query" test_set_and_query;
    case "same-side rejected" test_same_side_rejected;
    case "double drive rejected" test_double_drive_rejected;
    case "three connections" test_three_connections;
    case "equal" test_equal;
    case "diff counts" test_diff_counts;
    case "merge_lazy keeps" test_merge_lazy_keeps;
    case "merge_lazy overrides output" test_merge_lazy_overrides_output;
    case "merge_lazy steals input" test_merge_lazy_steals_input;
    case "merge_lazy disjoint union" test_merge_lazy_disjoint_union;
    case "pp" test_pp;
    case "side index round trip" test_side_index_round_trip;
    case "oracle: queries on every code" test_oracle_queries;
    case "oracle: set on every code" test_oracle_set;
    case "oracle: merge, diff, equal on legal pairs" test_oracle_pairs;
    case "oracle: merge with an illegal prev" test_oracle_illegal_merge;
  ]
