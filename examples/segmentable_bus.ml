(* The segmentable bus on a CST.

   The paper's introduction motivates well-nested sets as a superset of
   the communications a segmentable bus needs.  This example drives a
   16-PE segmentable bus through three steps (reconfiguring its segment
   switches between steps), compiles every step to a CST communication
   set, schedules it with the PADR scheduler, and checks that the CST
   deliveries reproduce the direct bus semantics.

   Run with:  dune exec examples/segmentable_bus.exe *)

open Cst_workloads

let step bus ~label writes =
  Format.printf "--- %s ---@." label;
  Format.printf "segments:" ;
  List.iter (fun (lo, hi) -> Format.printf " [%d..%d]" lo hi) (Segbus.segments bus);
  Format.printf "@.";
  match (Segbus.run_bus bus writes, Segbus.run_on_cst bus writes) with
  | Error e, _ | _, Error e ->
      Format.printf "rejected: %a@.@." Segbus.pp_error e
  | Ok bus_deliveries, Ok w ->
      let cst_deliveries = Padr.Waves.deliveries w in
      List.iter
        (fun (w, r) -> Format.printf "  bus: PE %d drives its segment, PE %d latches@." w r)
        bus_deliveries;
      Format.printf "  CST schedule: %d round(s), %d power unit(s)@."
        w.rounds w.power.total_connects;
      Format.printf "  CST reproduces the bus: %b@.@."
        (cst_deliveries = bus_deliveries)

let () =
  let bus = Segbus.create ~n:16 in

  (* Step 1: one global segment, a single long-haul write. *)
  step bus ~label:"step 1: unsegmented broadcast write"
    [ { Segbus.writer = 2; reader = 13 } ];

  (* Step 2: cut into four segments, one write per segment, both
     directions — decomposed into two oriented well-nested sets. *)
  Segbus.cut bus 3;
  Segbus.cut bus 7;
  Segbus.cut bus 11;
  step bus ~label:"step 2: four segments, mixed directions"
    [
      { Segbus.writer = 0; reader = 3 };
      { Segbus.writer = 6; reader = 4 };
      { Segbus.writer = 8; reader = 11 };
      { Segbus.writer = 15; reader = 12 };
    ];

  (* Step 3: rejoin the middle, demonstrating a contention rejection. *)
  Segbus.join bus 7;
  step bus ~label:"step 3: two writers in one segment (rejected)"
    [
      { Segbus.writer = 4; reader = 7 };
      { Segbus.writer = 8; reader = 11 };
    ];
  step bus ~label:"step 3 fixed: one writer in the merged segment"
    [ { Segbus.writer = 4; reader = 11 } ]
