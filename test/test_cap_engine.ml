open Helpers

(* The capacity-aware allocator on generalized shapes: the rounds =
   ceil(width/c) bound on controlled traces, digest identity between
   the sequential spec run and the segment-parallel engine across
   shapes and domain counts, exact binary reproduction on capacity-1
   ladders, and the shape-fingerprint codec header. *)

let fat level_sizes capacities =
  Result.get_ok (Cst.Shape.fat_tree ~level_sizes ~capacities)

let onion = Cst_workloads.Gen_wn.onion

let capacity_cases =
  [
    case "fat tree cuts rounds by the uplink capacity" (fun () ->
        (* 8 centre-straddling pairs: width 8 on the binary tree, and a
           capacity-c leaf tier admits c of them per round. *)
        let set = onion ~n:64 ~width:8 in
        List.iter
          (fun (c, expect) ->
            let topo =
              Cst.Topology.of_shape (fat [| 64; 8 |] [| c; c |])
            in
            let sched, _ = Padr.Cap_engine.run_exn topo set in
            check_int
              (Printf.sprintf "width at cap %d" c)
              expect (Cst.Compat.width topo set);
            check_int
              (Printf.sprintf "rounds at cap %d" c)
              expect
              (Padr.Schedule.num_rounds sched))
          [ (1, 8); (2, 4); (4, 2); (8, 1) ]);
    case "deliveries equal the matching on every shape" (fun () ->
        let set = onion ~n:27 ~width:5 in
        List.iter
          (fun shape ->
            let topo = Cst.Topology.of_shape shape in
            let sched, _ = Padr.Cap_engine.run_exn topo set in
            check_true "all delivered"
              (Padr.Schedule.all_deliveries sched
              = Cst_comm.Comm_set.matching set))
          [ Cst.Shape.kary ~k:3 ~leaves:27; fat [| 27; 3 |] [| 2; 1 |] ]);
    case "verifier accepts capacity schedules" (fun () ->
        let set = onion ~n:64 ~width:6 in
        let topo = Cst.Topology.of_shape (fat [| 64; 16 |] [| 3; 3 |]) in
        let sched, _ = Padr.Cap_engine.run_exn topo set in
        let report =
          Padr.Verify.schedule ~check_rounds_optimal:false topo set sched
        in
        check_true
          ("verifies: " ^ String.concat "; " report.issues)
          report.ok);
    case "capacity-1 ladder reproduces the binary engine exactly"
      (fun () ->
        let n = 32 in
        let rng = Cst_util.Prng.create 42 in
        let set = Cst_workloads.Gen_wn.uniform rng ~n ~density:0.7 in
        let ladder = fat [| 32; 16; 8; 4; 2 |] [| 1; 1; 1; 1; 1 |] in
        check_true "ladder is binary" (Cst.Shape.is_binary ladder);
        let dig topo =
          let log = Cst.Exec_log.create () in
          ignore (Padr.Csa.run_exn ~log topo set);
          Cst.Exec_log.digest log
        in
        Alcotest.(check string)
          "digests equal"
          (dig (Cst.Topology.create ~leaves:n))
          (dig (Cst.Topology.of_shape ladder)));
  ]

let engine_vs_par =
  [
    case "par engine is digest-identical across shapes and domains"
      (fun () ->
        List.iter
          (fun shape ->
            let topo = Cst.Topology.of_shape shape in
            let n = Cst.Shape.leaves shape in
            let rng =
              Cst_util.Prng.create (17 + Cst.Shape.fingerprint shape)
            in
            let set =
              Cst_workloads.Gen_wn.uniform rng ~n ~density:0.6
            in
            let ref_log = Cst.Exec_log.create () in
            ignore (Padr.Csa.run_exn ~log:ref_log topo set);
            let ref_digest = Cst.Exec_log.digest ref_log in
            List.iter
              (fun domains ->
                let log = Cst.Exec_log.create () in
                match Padr.Par_engine.run ~domains ~log topo set with
                | Error e ->
                    Alcotest.failf "%s at %d domains: %s"
                      (Cst.Shape.to_string shape)
                      domains
                      (Format.asprintf "%a" Padr.Csa.pp_error e)
                | Ok _ ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s at %d domains"
                         (Cst.Shape.to_string shape)
                         domains)
                      ref_digest
                      (Cst.Exec_log.digest log))
              [ 1; 2; 4 ])
          [
            Cst.Shape.binary ~leaves:64;
            Cst.Shape.kary ~k:4 ~leaves:64;
            fat [| 64; 8 |] [| 2; 2 |];
            fat [| 48; 6 |] [| 2; 3 |];
          ]);
  ]

let codec_cases =
  [
    case "shape fingerprint rides the log codec header" (fun () ->
        let shape = fat [| 64; 8 |] [| 2; 2 |] in
        let topo = Cst.Topology.of_shape shape in
        let set = onion ~n:64 ~width:4 in
        let log = Cst.Exec_log.create () in
        ignore (Padr.Csa.run_exn ~log topo set);
        let fp = Cst.Shape.fingerprint shape in
        let b = Cst.Exec_log.Codec.encode ~shape_fp:fp log in
        (match Cst.Exec_log.Codec.shape_fp b with
        | Ok got -> check_int "fingerprint read back" fp got
        | Error e ->
            Alcotest.failf "shape_fp: %a" Cst.Exec_log.Codec.pp_error e);
        match Cst.Exec_log.Codec.decode b with
        | Ok (decoded, _) ->
            Alcotest.(check string)
              "decoded digest"
              (Cst.Exec_log.digest log)
              (Cst.Exec_log.digest decoded)
        | Error e ->
            Alcotest.failf "decode: %a" Cst.Exec_log.Codec.pp_error e);
    case "binary logs keep the historical v1 layout" (fun () ->
        let topo = Cst.Topology.create ~leaves:16 in
        let set = onion ~n:16 ~width:3 in
        let log = Cst.Exec_log.create () in
        ignore (Padr.Csa.run_exn ~log topo set);
        let b = Cst.Exec_log.Codec.encode ~shape_fp:0 log in
        check_int "v1 size"
          (Cst.Exec_log.Codec.header_bytes + (8 * Cst.Exec_log.length log))
          (Bytes.length b);
        check_true "fingerprint reads as 0"
          (Cst.Exec_log.Codec.shape_fp b = Ok 0));
  ]

let suite = capacity_cases @ engine_vs_par @ codec_cases
