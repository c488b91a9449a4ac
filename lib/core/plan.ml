type producer = Spec | Engine

type t = {
  producer : producer;
  shape : Cst.Shape.t;
  leaves : int;
  base : int;
  canon : Cst.Canon.t;
  rounds : int;
  cycles : int;
  control_messages : int;
  log : Cst.Exec_log.t;
}

let placement ?placed set =
  match placed with Some p -> p | None -> Cst.Canon.place set

let of_log ~producer ~topo ~set ?placed ~rounds ~cycles ?(control_messages = 0)
    log =
  let placed = placement ?placed set in
  {
    producer;
    shape = Cst.Topology.shape topo;
    leaves = Cst.Topology.leaves topo;
    base = placed.base;
    canon = placed.canon;
    rounds;
    cycles;
    control_messages;
    log = Cst.Exec_log.sub log ~from:0;
  }

let compile ?(producer = Engine) topo set =
  let log = Cst.Exec_log.create () in
  match producer with
  | Engine -> (
      match Engine.run ~log topo set with
      | Ok (s, stats) ->
          Ok
            (of_log ~producer ~topo ~set ~rounds:(Schedule.num_rounds s)
               ~cycles:s.cycles ~control_messages:stats.control_messages log)
      | Error e -> Error e)
  | Spec -> (
      match Csa.run ~log topo set with
      | Ok s ->
          Ok
            (of_log ~producer ~topo ~set ~rounds:(Schedule.num_rounds s)
               ~cycles:s.cycles log)
      | Error e -> Error e)

type replayed = {
  schedule : Schedule.t;
  log : Cst.Exec_log.t;
  cycles : int;
  control_messages : int;
}

(* Every check a replay makes lives here, so [relocate] and [replay]
   accept and reject exactly the same inputs. *)
let relocate ?placed t topo set =
  let leaves = Cst.Topology.leaves topo in
  let placed = placement ?placed set in
  if not (Cst.Canon.equal placed.canon t.canon) then
    invalid_arg "Padr.Plan.replay: set does not match the plan's signature";
  if Cst_comm.Comm_set.n set > leaves then
    invalid_arg "Padr.Plan.replay: set does not fit the topology";
  if not (Cst.Shape.is_binary t.shape) then begin
    (* Translation is not a congruence off the binary shape (subtrees at
       one depth need not be isomorphic, and capacities are positional),
       so a non-binary plan replays only at its compiled shape and
       placement. *)
    if not (Cst.Shape.equal (Cst.Topology.shape topo) t.shape) then
      invalid_arg "Padr.Plan.replay: topology shape differs from the plan's";
    if placed.base <> t.base then
      invalid_arg
        "Padr.Plan.replay: non-binary plans replay only at their compiled \
         placement"
  end
  else if not (Cst.Topology.is_binary topo) then
    invalid_arg "Padr.Plan.replay: binary plan on a non-binary topology"
  else if not (Cst.Canon.compatible t.canon ~leaves ~base:placed.base) then
    invalid_arg "Padr.Plan.replay: placement incompatible with the topology";
  if leaves = t.leaves && placed.base = t.base then t.log
  else
    Cst.Exec_log.rebase t.log ~src_leaves:t.leaves ~src_base:t.base
      ~dst_leaves:leaves ~dst_base:placed.base
      ~align:(Cst.Canon.align t.canon)

let replay ?placed t topo set =
  let log = relocate ?placed t topo set in
  (* At the compiled size the frozen costs stand; on another tree size
     the producer's closed-form model (Theorem 5) recomputes them. *)
  let cycles, control_messages =
    if Cst.Topology.leaves topo = t.leaves then (t.cycles, t.control_messages)
    else
      match t.producer with
      | Spec -> (Cst.Topology.spec_cycles topo ~rounds:t.rounds, 0)
      | Engine -> Cst.Topology.engine_cost topo ~rounds:t.rounds
  in
  {
    schedule = Schedule.of_log ~set ~topo ~cycles log;
    log;
    cycles;
    control_messages;
  }

let bytes (t : t) =
  Cst.Exec_log.bytes_used t.log + (16 * Cst.Canon.size t.canon) + 128

let pp fmt (t : t) =
  Format.fprintf fmt
    "plan %s leaves=%d base=%d rounds=%d cycles=%d msgs=%d events=%d (%a)"
    (match t.producer with Spec -> "spec" | Engine -> "engine")
    t.leaves t.base t.rounds t.cycles t.control_messages
    (Cst.Exec_log.length t.log)
    Cst.Canon.pp t.canon

(* Binary codec: 80-byte plan header + (version 2 only) a shape block +
   canon offsets + the embedded event-log section.  The meta digest
   covers the header (minus its own slot), the shape block and the
   offsets; the log section carries its own arena digest and, in its
   canon-hash slot, the hash of this plan's canon — decode rebuilds the
   canon from the offsets and requires the two hashes to agree, so
   metadata and events cannot be spliced from different plans.  Encode
   picks the version from the shape: binary plans emit the historical
   version-1 bytes (no shape block, version-1 log section), so every
   classic plan file is byte-identical; non-binary plans emit version 2
   with the level table serialized as [levels][sizes...][caps...] u32s
   and the shape fingerprint echoed in the log section's header.
   Fields go through the stdlib's little-endian accessors: a 32-bit
   field reads unsigned, a 64-bit one modulo 2^63, so crafted top bytes
   surface as negative values; every count is range-checked after the
   digests pass. *)
module Codec = struct
  type error =
    | Truncated of { expected : int; got : int }
    | Bad_magic
    | Unsupported_version of { found : int; expected : int }
    | Digest_mismatch
    | Canon_mismatch
    | Bad_field of string
    | Log of Cst.Exec_log.Codec.error

  let pp_error fmt = function
    | Truncated { expected; got } ->
        Format.fprintf fmt "truncated: need %d bytes, have %d" expected got
    | Bad_magic -> Format.fprintf fmt "bad magic (not a CST plan)"
    | Unsupported_version { found; expected } ->
        Format.fprintf fmt "unsupported version %d (expected %d)" found
          expected
    | Digest_mismatch -> Format.fprintf fmt "plan metadata digest mismatch"
    | Canon_mismatch ->
        Format.fprintf fmt "canon hash disagrees with the stored offsets"
    | Bad_field f -> Format.fprintf fmt "invalid field: %s" f
    | Log e ->
        Format.fprintf fmt "log section: %a" Cst.Exec_log.Codec.pp_error e

  let version = 2
  let magic = "CSTPLAN1"
  let header_bytes = 80

  let shape_block_len shape =
    if Cst.Shape.is_binary shape then 0
    else 4 * (1 + (2 * (Cst.Shape.levels shape + 1)))

  let u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xffff_ffff
  let u63 b pos = Int64.to_int (Bytes.get_int64_le b pos)
  let set_u32 b pos v = Bytes.set_int32_le b pos (Int32.of_int v)
  let set_u64 b pos v = Bytes.set_int64_le b pos (Int64.of_int v)

  (* [extra_len] = shape block + offsets: everything between the header
     and the log section, contiguous from [header_bytes]. *)
  let meta_digest b ~extra_len =
    let h = ref Cst_util.Fnv.basis in
    let mix i = h := Cst_util.Fnv.mix !h (Bytes.get_uint8 b i) in
    for i = 0 to 71 do
      mix i
    done;
    for i = header_bytes to header_bytes + extra_len - 1 do
      mix i
    done;
    !h

  let encoded_bytes (t : t) =
    header_bytes + shape_block_len t.shape
    + (8 * Cst.Canon.size t.canon)
    + Cst.Exec_log.Codec.encoded_bytes
        ~shape_fp:(Cst.Shape.fingerprint t.shape)
        t.log

  let encode (t : t) =
    let n = Cst.Canon.size t.canon in
    let binary = Cst.Shape.is_binary t.shape in
    let shape_len = shape_block_len t.shape in
    let b = Bytes.create (encoded_bytes t) in
    Bytes.blit_string magic 0 b 0 8;
    set_u32 b 8 (if binary then 1 else version);
    (* the producer byte and its three reserved zero bytes *)
    set_u32 b 12 (match t.producer with Spec -> 0 | Engine -> 1);
    set_u64 b 16 t.leaves;
    set_u64 b 24 t.base;
    set_u64 b 32 t.rounds;
    set_u64 b 40 t.cycles;
    set_u64 b 48 t.control_messages;
    set_u64 b 56 (Cst.Canon.align t.canon);
    set_u64 b 64 n;
    if not binary then begin
      let levels = Cst.Shape.levels t.shape in
      let sizes = Cst.Shape.sizes t.shape and caps = Cst.Shape.caps t.shape in
      set_u32 b header_bytes levels;
      for d = 0 to levels do
        set_u32 b (header_bytes + 4 + (4 * d)) sizes.(d);
        set_u32 b (header_bytes + 4 + (4 * (levels + 1)) + (4 * d)) caps.(d)
      done
    end;
    let offs_pos = header_bytes + shape_len in
    Array.iteri
      (fun i (s, d) ->
        set_u32 b (offs_pos + (8 * i)) s;
        set_u32 b (offs_pos + (8 * i) + 4) d)
      (Cst.Canon.offsets t.canon);
    set_u64 b 72 (meta_digest b ~extra_len:(shape_len + (8 * n)));
    ignore
      (Cst.Exec_log.Codec.encode_into
         ~canon_hash:(Cst.Canon.hash t.canon)
         ~shape_fp:(Cst.Shape.fingerprint t.shape)
         t.log b
         ~pos:(offs_pos + (8 * n)));
    b

  (* Reads and validates the version-2 shape block at [header_bytes];
     returns its byte length and the reconstructed shape. *)
  let decode_shape_block b ~len =
    if len < header_bytes + 4 then
      Error (Truncated { expected = header_bytes + 4; got = len })
    else
      let levels = u32 b header_bytes in
      if levels < 1 || levels > 60 then Error (Bad_field "shape levels")
      else
        let shape_len = 4 * (1 + (2 * (levels + 1))) in
        if len < header_bytes + shape_len then
          Error (Truncated { expected = header_bytes + shape_len; got = len })
        else
          let size_at d = u32 b (header_bytes + 4 + (4 * d)) in
          let cap_at d =
            u32 b (header_bytes + 4 + (4 * (levels + 1)) + (4 * d))
          in
          if size_at 0 <> 1 || cap_at 0 <> 0 then Error (Bad_field "shape root")
          else
            (* [create] takes the table leaf-to-root without the root. *)
            let level_sizes = Array.init levels (fun i -> size_at (levels - i))
            and capacities = Array.init levels (fun i -> cap_at (levels - i)) in
            match Cst.Shape.create ~level_sizes ~capacities with
            | Error _ -> Error (Bad_field "shape table")
            | Ok shape ->
                if Cst.Shape.is_binary shape then
                  (* Binary plans are canonically version 1. *)
                  Error (Bad_field "binary shape in a version-2 plan")
                else Ok (shape_len, shape)

  (* Every event must lie where a run of the plan's set can reach: a
     config event at a switch of the plan's tree (on binary shapes, of
     its block's subtree — what [relocate] assumes when it rebases), a
     delivery between two PEs of the block.  Checked event by event at
     decode, so a digest-valid file that names a node outside its tree
     is a typed error here, not a crash at replay. *)
  let events_fit ~shape ~leaves ~base ~align log =
    let switches = Cst.Shape.num_nodes shape - leaves in
    let in_block =
      if Cst.Shape.is_binary shape then begin
        (* heap numbering: the block's root is the node whose leaf
           interval is the block, and a node [j] levels below it lies in
           [root * 2^j, (root + 1) * 2^j) *)
        let root = (leaves + base) / align in
        let root_depth = Cst_util.Bits.ilog2 root in
        fun v ->
          let j = Cst_util.Bits.ilog2 v - root_depth in
          j >= 0 && v lsr j = root
      end
      else fun _ -> true
    in
    let switch_ok v = v >= 1 && v <= switches && in_block v in
    let pe_ok p = p >= base && p < base + align in
    Cst.Exec_log.fold log ~init:true ~f:(fun ok e ->
        ok
        &&
        match e with
        | Cst.Exec_log.Connect { node; _ }
        | Cst.Exec_log.Disconnect { node; _ }
        | Cst.Exec_log.Write_config { node; _ } ->
            switch_ok node
        | Cst.Exec_log.Deliver { src; dst } -> pe_ok src && pe_ok dst
        | Cst.Exec_log.Phase_done _ | Cst.Exec_log.Round_begin _
        | Cst.Exec_log.Run_end _ ->
            true)

  let decode b =
    let len = Bytes.length b in
    if len < header_bytes then
      Error (Truncated { expected = header_bytes; got = len })
    else if not (String.equal (Bytes.sub_string b 0 8) magic) then
      Error Bad_magic
    else
      let v = u32 b 8 in
      if v <> 1 && v <> version then
        Error (Unsupported_version { found = v; expected = version })
      else
        let shape_part =
          if v = 1 then Ok (0, None)
          else
            match decode_shape_block b ~len with
            | Ok (shape_len, shape) -> Ok (shape_len, Some shape)
            | Error e -> Error e
        in
        match shape_part with
        | Error e -> Error e
        | Ok (shape_len, shape) -> (
            let offs_pos = header_bytes + shape_len in
            let n = u63 b 64 in
            if n < 0 || n > (len - offs_pos) / 8 then
              Error
                (Truncated
                   {
                     expected =
                       (if n < 0 || n > (max_int - offs_pos) / 8 then max_int
                        else offs_pos + (8 * n));
                     got = len;
                   })
            else if
              u63 b 72 <> meta_digest b ~extra_len:(shape_len + (8 * n))
            then Error Digest_mismatch
            else
              let producer =
                match Char.code (Bytes.get b 12) with
                | 0 -> Ok Spec
                | 1 -> Ok Engine
                | _ -> Error (Bad_field "producer")
              in
              match producer with
              | Error e -> Error e
              | Ok producer -> (
                  let leaves = u63 b 16
                  and base = u63 b 24
                  and rounds = u63 b 32
                  and cycles = u63 b 40
                  and control_messages = u63 b 48
                  and align = u63 b 56 in
                  let offs =
                    Array.init n (fun i ->
                        ( u32 b (offs_pos + (8 * i)),
                          u32 b (offs_pos + (8 * i) + 4) ))
                  in
                  match Cst.Canon.of_offsets ~align offs with
                  | exception Invalid_argument _ ->
                      Error (Bad_field "canon offsets")
                  | canon -> (
                      let log_pos = offs_pos + (8 * n) in
                      match Cst.Exec_log.Codec.decode ~pos:log_pos b with
                      | Error e -> Error (Log e)
                      | Ok (log, next) ->
                          if next <> len then Error (Bad_field "trailing bytes")
                          else if
                            Cst.Exec_log.Codec.canon_hash ~pos:log_pos b
                            <> Ok (Cst.Canon.hash canon)
                          then Error Canon_mismatch
                          else if
                            rounds < 0 || cycles < 0 || control_messages < 0
                          then Error (Bad_field "negative count")
                          else
                            let placement_ok shape_opt =
                              match shape_opt with
                              | None ->
                                  leaves >= 1
                                  && leaves land (leaves - 1) = 0
                                  && Cst.Canon.compatible canon ~leaves ~base
                              | Some shape ->
                                  leaves = Cst.Shape.leaves shape
                                  && base >= 0
                                  && base mod align = 0
                                  && base + align <= leaves
                            in
                            if not (placement_ok shape) then
                              Error (Bad_field "placement")
                            else
                              let shape =
                                match shape with
                                | Some s -> s
                                | None -> Cst.Shape.binary ~leaves
                              in
                              if
                                Cst.Exec_log.Codec.shape_fp ~pos:log_pos b
                                <> Ok (Cst.Shape.fingerprint shape)
                              then Error (Bad_field "shape fingerprint")
                              else if
                                not (events_fit ~shape ~leaves ~base ~align log)
                              then Error (Bad_field "event outside the block")
                              else
                                Ok
                                  {
                                    producer;
                                    shape;
                                    leaves;
                                    base;
                                    canon;
                                    rounds;
                                    cycles;
                                    control_messages;
                                    log;
                                  })))

  let write_file ~path t =
    let b = encode t in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       output_bytes oc b;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path

  let read_file ~path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        match really_input ic b 0 len with
        | () -> decode b
        | exception End_of_file ->
            Error (Truncated { expected = len; got = 0 }))
end
