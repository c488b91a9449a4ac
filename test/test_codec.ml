(* Binary codecs: the event-log and plan serializations round-trip
   losslessly, decoded plans replay digest-identical to fresh runs, and
   every corruption mode surfaces as a typed error. *)

open Helpers

module LC = Cst.Exec_log.Codec
module PC = Padr.Plan.Codec

let sample_log n pairs =
  let log = Cst.Exec_log.create () in
  ignore (Padr.Engine.run_exn ~log (topo n) (set ~n pairs));
  log

let roundtrip_empty () =
  let log = Cst.Exec_log.create () in
  let b = LC.encode log in
  check_int "empty encoding is just the header" LC.header_bytes
    (Bytes.length b);
  match LC.decode b with
  | Error e -> Alcotest.failf "empty round trip: %a" LC.pp_error e
  | Ok (d, consumed) ->
      check_int "consumed everything" (Bytes.length b) consumed;
      check_int "no events" 0 (Cst.Exec_log.length d)

let roundtrip_log () =
  let log = sample_log 8 [ (0, 3); (1, 2); (4, 7) ] in
  let b = LC.encode ~canon_hash:0x1234 log in
  check_int "encoded_bytes matches" (LC.encoded_bytes log) (Bytes.length b);
  (match LC.canon_hash b with
  | Ok h -> check_int "canon hash preserved" 0x1234 h
  | Error e -> Alcotest.failf "canon_hash: %a" LC.pp_error e);
  match LC.decode b with
  | Error e -> Alcotest.failf "round trip: %a" LC.pp_error e
  | Ok (d, _) ->
      check_int "length preserved" (Cst.Exec_log.length log)
        (Cst.Exec_log.length d);
      check_true "digest preserved"
        (Cst.Exec_log.digest d = Cst.Exec_log.digest log)

let log_errors () =
  let log = sample_log 8 [ (0, 3); (1, 2) ] in
  let b = LC.encode log in
  (* truncation: too short for the header, and too short for the arena *)
  (match LC.decode (Bytes.sub b 0 7) with
  | Error (LC.Truncated _) -> ()
  | _ -> Alcotest.fail "7-byte buffer must be Truncated");
  (match LC.decode (Bytes.sub b 0 (Bytes.length b - 3)) with
  | Error (LC.Truncated _) -> ()
  | _ -> Alcotest.fail "clipped arena must be Truncated");
  (* magic *)
  let m = Bytes.copy b in
  Bytes.set m 0 'X';
  (match LC.decode m with
  | Error LC.Bad_magic -> ()
  | _ -> Alcotest.fail "wrong magic must be Bad_magic");
  (* version *)
  let v = Bytes.copy b in
  Bytes.set v 8 '\099';
  (match LC.decode v with
  | Error (LC.Unsupported_version { found = 99; expected }) ->
      check_int "expected version" LC.version expected
  | _ -> Alcotest.fail "version 99 must be Unsupported_version");
  (* arena flip: low bit of a word changes the digest *)
  let c = Bytes.copy b in
  let pos = LC.header_bytes in
  Bytes.set c pos (Char.chr (Char.code (Bytes.get c pos) lxor 1));
  (match LC.decode c with
  | Error LC.Digest_mismatch -> ()
  | _ -> Alcotest.fail "flipped arena bit must be Digest_mismatch");
  (* a stored word with the top byte's high bit set cannot be an OCaml
     int that [encode] produced: Bad_word, never silent wraparound *)
  let w = Bytes.copy b in
  let top = LC.header_bytes + 7 in
  Bytes.set w top (Char.chr (Char.code (Bytes.get w top) lor 0x80));
  (match LC.decode w with
  | Error (LC.Bad_word { index = 0 }) -> ()
  | Error LC.Digest_mismatch ->
      Alcotest.fail "top-bit corruption must be Bad_word, not digest"
  | _ -> Alcotest.fail "top-bit corruption must be Bad_word")

let canon_offsets () =
  let placed = Cst.Canon.place (set ~n:8 [ (1, 6); (2, 5) ]) in
  let align = Cst.Canon.align placed.canon in
  let offs = Cst.Canon.offsets placed.canon in
  check_true "round trip equals"
    (Cst.Canon.equal placed.canon (Cst.Canon.of_offsets ~align offs));
  check_raises_invalid "non-power-of-two align" (fun () ->
      Cst.Canon.of_offsets ~align:6 offs);
  check_raises_invalid "endpoint out of range" (fun () ->
      Cst.Canon.of_offsets ~align:2 offs);
  check_raises_invalid "src = dst" (fun () ->
      Cst.Canon.of_offsets ~align:2 [| (1, 1) |]);
  check_raises_invalid "unsorted sources" (fun () ->
      Cst.Canon.of_offsets ~align:8 [| (4, 5); (1, 2) |]);
  check_raises_invalid "non-minimal align" (fun () ->
      (* fits entirely in the left half: a 4-block would contain it *)
      Cst.Canon.of_offsets ~align:8 [| (0, 1); (2, 3) |]);
  check_raises_invalid "non-empty offsets need their align" (fun () ->
      Cst.Canon.of_offsets ~align:1 [| (0, 1) |])

let plan_roundtrip () =
  let n = 16 in
  let s = set ~n [ (0, 7); (1, 6); (8, 15) ] in
  let plan =
    Result.get_ok (Padr.Plan.compile ~producer:Padr.Plan.Engine (topo n) s)
  in
  let b = PC.encode plan in
  check_int "encoded_bytes matches" (PC.encoded_bytes plan) (Bytes.length b);
  match PC.decode b with
  | Error e -> Alcotest.failf "plan round trip: %a" PC.pp_error e
  | Ok d ->
      check_true "producer" (d.producer = plan.producer);
      check_int "leaves" plan.leaves d.leaves;
      check_int "rounds" plan.rounds d.rounds;
      check_int "cycles" plan.cycles d.cycles;
      check_int "control messages" plan.control_messages d.control_messages;
      check_true "canon" (Cst.Canon.equal plan.canon d.canon);
      check_true "log digest"
        (Cst.Exec_log.digest d.log = Cst.Exec_log.digest plan.log)

let plan_errors () =
  let n = 16 in
  let s = set ~n [ (0, 7); (1, 6); (8, 15) ] in
  let plan =
    Result.get_ok (Padr.Plan.compile ~producer:Padr.Plan.Engine (topo n) s)
  in
  let b = PC.encode plan in
  (match PC.decode (Bytes.sub b 0 40) with
  | Error (PC.Truncated _) -> ()
  | _ -> Alcotest.fail "clipped plan header must be Truncated");
  let m = Bytes.copy b in
  Bytes.set m 3 '?';
  (match PC.decode m with
  | Error PC.Bad_magic -> ()
  | _ -> Alcotest.fail "wrong plan magic must be Bad_magic");
  let v = Bytes.copy b in
  Bytes.set v 8 '\042';
  (match PC.decode v with
  | Error (PC.Unsupported_version { found = 42; _ }) -> ()
  | _ -> Alcotest.fail "plan version 42 must be Unsupported_version");
  (* flip a header byte below the meta digest: Digest_mismatch *)
  let h = Bytes.copy b in
  Bytes.set h 16 (Char.chr (Char.code (Bytes.get h 16) lxor 1));
  (match PC.decode h with
  | Error PC.Digest_mismatch -> ()
  | _ -> Alcotest.fail "flipped header byte must be Digest_mismatch");
  (* splice: a valid log section whose canon hash names another set
     must be Canon_mismatch, not a quietly mislabeled plan *)
  let other =
    Result.get_ok
      (Padr.Plan.compile ~producer:Padr.Plan.Engine (topo n)
         (set ~n [ (2, 13) ]))
  in
  let ob = PC.encode other in
  let n_off = Cst.Canon.size plan.canon in
  let log_pos = 80 + (8 * n_off) in
  let spliced =
    Bytes.cat (Bytes.sub b 0 log_pos)
      (Bytes.sub ob (80 + (8 * Cst.Canon.size other.canon))
         (Bytes.length ob - 80 - (8 * Cst.Canon.size other.canon)))
  in
  match PC.decode spliced with
  | Error (PC.Canon_mismatch | PC.Truncated _ | PC.Bad_field _) -> ()
  | Ok _ -> Alcotest.fail "spliced log section must not decode"
  | Error e -> Alcotest.failf "splice: unexpected error %a" PC.pp_error e

let prop_replay_fresh =
  prop "decoded plan replays digest-identical to a fresh run" ~count:200
    (fun ((_, n_exp, _) as params) ->
      let s = set_of_params params in
      let n = 1 lsl n_exp in
      let t = topo n in
      let fresh = Cst.Exec_log.create () in
      ignore (Padr.Engine.run_exn ~log:fresh t s);
      match Padr.Plan.compile ~producer:Padr.Plan.Engine t s with
      | Error _ -> false
      | Ok plan -> (
          match PC.decode (PC.encode plan) with
          | Error _ -> false
          | Ok d ->
              let r = Padr.Plan.replay d t s in
              Cst.Exec_log.digest r.log = Cst.Exec_log.digest fresh))

let prop_log_roundtrip =
  prop "event-log codec round trip preserves digest and length" ~count:200
    (fun ((_, n_exp, _) as params) ->
      let s = set_of_params params in
      let n = 1 lsl n_exp in
      let log = Cst.Exec_log.create () in
      ignore (Padr.Engine.run_exn ~log (topo n) s);
      match LC.decode (LC.encode log) with
      | Error _ -> false
      | Ok (d, _) ->
          Cst.Exec_log.digest d = Cst.Exec_log.digest log
          && Cst.Exec_log.length d = Cst.Exec_log.length log)

(* Golden bytes: the MD5 of each encoding of two fixed engine plans —
   a binary tree and a 4-ary one, whose plan carries a shape block and
   whose log section carries the version-2 header — so any change to a
   field's width, order, sign handling or FNV mix shows up as a moved
   hash.  The canon hash, the shape fingerprint and the store's
   filename hash are pinned alongside. *)
let golden_bytes () =
  let hex b = Digest.to_hex (Digest.bytes b) in
  let s = set ~n:16 [ (8, 15); (9, 10); (11, 14); (12, 13) ] in
  let check_plan name shape ~plan_md5 ~log_md5 ~tagged_md5 =
    let plan =
      Result.get_ok
        (Padr.Plan.compile ~producer:Padr.Plan.Engine
           (Cst.Topology.of_shape shape) s)
    in
    Alcotest.(check string) (name ^ " plan bytes") plan_md5
      (hex (PC.encode plan));
    Alcotest.(check string) (name ^ " log bytes") log_md5
      (hex (LC.encode plan.log));
    Alcotest.(check string)
      (name ^ " tagged log bytes")
      tagged_md5
      (hex
         (LC.encode
            ~canon_hash:(Cst.Canon.hash plan.canon)
            ~shape_fp:(Cst.Shape.fingerprint plan.shape)
            plan.log));
    plan
  in
  ignore
    (check_plan "binary" (Cst.Shape.binary ~leaves:16)
       ~plan_md5:"4ac66ac59b6e4f62da022da58d79c901"
       ~log_md5:"f3fad34bc37d7a04c26f6cc401c4aa04"
       ~tagged_md5:"3df0ac0e1edae169ada9984e21c32e98");
  let kplan =
    check_plan "kary:4" (Cst.Shape.kary ~k:4 ~leaves:16)
      ~plan_md5:"444b0bda87286c1dd540c89fcd29acf6"
      ~log_md5:"2603e6390d2082bb075ab19e184fb108"
      ~tagged_md5:"29eb6a8e0a195a7e5fa38f9b0302ff1e"
  in
  let fp = Cst.Shape.fingerprint kplan.shape in
  let hex_int = Printf.sprintf "%016x" in
  Alcotest.(check string) "canon hash" "2893f4181c773287"
    (hex_int (Cst.Canon.hash kplan.canon));
  Alcotest.(check string) "shape fingerprint" "1c8160f6882c02c1" (hex_int fp);
  Alcotest.(check string) "store filename hash" "16c3576616f306f2"
    (hex_int (Cst.Canon.hash_with ~shape_fp:fp kplan.canon))

let suite =
  [
    case "empty log round trip" roundtrip_empty;
    case "log round trip" roundtrip_log;
    case "log corruption is typed" log_errors;
    case "canon offsets round trip and validation" canon_offsets;
    case "plan round trip" plan_roundtrip;
    case "plan corruption is typed" plan_errors;
    prop_replay_fresh;
    prop_log_roundtrip;
    case "golden bytes of binary and kary:4 plans" golden_bytes;
  ]
