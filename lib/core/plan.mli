(** Compile-once / replay-many routing plans.

    A plan freezes one scheduler run — its canonical execution log plus
    the derived round/cycle metadata — into an immutable artifact keyed
    by the set's structural signature ({!Cst.Canon}).  Replaying a plan
    reconstructs the full {!Schedule.t} for any set congruent to the
    compiled one (same signature, any compatible placement and tree
    size) without re-running the scheduler: the log is relocated with
    {!Cst.Exec_log.rebase} in O(events) and the schedule derived from
    it, byte-identical (same {!Cst.Exec_log.digest}) to a fresh run on
    the target set. *)

type producer = Spec | Engine
(** Which cycle model the compiled run obeys: the functional scheduler
    family ([cycles = levels + rounds*(levels+1)], control-message
    free) or the message-passing engine
    ([cycles = 1 + levels + rounds*(levels+2)],
    [2*(leaves-1)*(rounds+1)] control messages). *)

type t = private {
  producer : producer;
  shape : Cst.Shape.t;  (** topology shape the plan was compiled on *)
  leaves : int;  (** tree size the plan was compiled at *)
  base : int;  (** leaf offset of the compiled set's aligned block *)
  canon : Cst.Canon.t;  (** structural signature of the compiled set *)
  rounds : int;
  cycles : int;  (** at the compiled [leaves] *)
  control_messages : int;  (** at the compiled [leaves]; 0 under [Spec] *)
  log : Cst.Exec_log.t;
      (** private frozen copy of the run's events — never mutated *)
}

val of_log :
  producer:producer ->
  topo:Cst.Topology.t ->
  set:Cst_comm.Comm_set.t ->
  ?placed:Cst.Canon.placed ->
  rounds:int ->
  cycles:int ->
  ?control_messages:int ->
  Cst.Exec_log.t ->
  t
(** Freezes an already-performed run whose events are exactly the
    contents of the given log (the service's cache-miss path: the run
    it just executed becomes the plan, with no second scheduling).  The
    log is copied into a private arena.  [placed] must be
    [Cst.Canon.place set], which a caller that already built it (to
    key a cache lookup) passes instead of having it recomputed. *)

val compile :
  ?producer:producer ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  (t, Csa.error) result
(** Schedules the set ([producer] defaults to [Engine], wrapping
    {!Engine.run}; [Spec] wraps {!Csa.run}) and freezes the run. *)

val relocate :
  ?placed:Cst.Canon.placed ->
  t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  Cst.Exec_log.t
(** The plan's log relocated onto [set]'s placement in [topo] —
    digest-identical to a fresh run on the target set — without deriving
    a schedule.  O(events) through {!Cst.Exec_log.rebase}; nothing
    tree-sized is allocated.  When the placement and tree size are the
    compiled ones the result aliases the plan's arena, so treat it as
    read-only.

    [set] must carry the plan's signature (checked; [Invalid_argument]
    otherwise) and fit the topology.  Binary plans relocate freely: any
    compatible placement on any binary tree size.  Non-binary plans
    relocate only onto a topology of the {e identical} shape with the
    set at the {e identical} placement — translation is not a
    congruence once subtrees at one depth stop being isomorphic and
    capacities are positional — and raise [Invalid_argument]
    otherwise.  [placed], as in {!of_log}, is [Cst.Canon.place set]
    when the caller has it; every check above is made on it. *)

type replayed = {
  schedule : Schedule.t;
  log : Cst.Exec_log.t;  (** {!relocate}'s result *)
  cycles : int;
  control_messages : int;  (** re-modeled for the target tree size *)
}

val replay :
  ?placed:Cst.Canon.placed ->
  t ->
  Cst.Topology.t ->
  Cst_comm.Comm_set.t ->
  replayed
(** {!relocate}, then the schedule of [set] on [topo] derived from the
    relocated log ({!Schedule.of_log}) and the cycle and control-message
    counts re-modeled for the target tree size — no scheduling.
    Accepts and rejects exactly the inputs {!relocate} does, with the
    same [Invalid_argument].  The relocation is O(events); the schedule
    derivation ({!Schedule.of_log}) adds O(comms × levels) for the width
    and a scan of the power ledger's tree-sized bitset, 32 switches per
    word.  The schedule's log range is [log]: at the
    compiled placement and tree size it is the plan's own (never
    mutated) arena, so streamed snapshots ({!Schedule.fold_configs})
    read the cached plan directly. *)

val bytes : t -> int
(** Approximate heap footprint (event arena + signature + boxing);
    the plan cache's budget unit. *)

val pp : Format.formatter -> t -> unit

(** {1 Binary codec}

    Self-contained little-endian serialization of a plan — the record
    the persistent plan store writes to disk.  Layout: an 80-byte plan
    header, a shape block (version 2 only), the canon offsets, then the
    embedded event-log section ({!Cst.Exec_log.Codec}) whose header
    carries the canon hash:

    {v
    offset  size  field
         0     8  magic "CSTPLAN1"
         8     4  format version (u32 LE): 1 or 2
        12     1  producer (0 = Spec, 1 = Engine)
        13     3  reserved, zero
        16     8  leaves            (u64 LE)
        24     8  base              (u64 LE)
        32     8  rounds            (u64 LE)
        40     8  cycles            (u64 LE)
        48     8  control messages  (u64 LE)
        56     8  canon align       (u64 LE)
        64     8  canon offset count n (u64 LE)
        72     8  meta digest       (u64 LE, FNV-1a over bytes 0-71,
                                     the shape block and the offsets)
      [ 80  4+8(L+1)  shape block — version 2 only: levels L (u32),
                                     then L+1 sizes and L+1 caps (u32),
                                     both root-first ]
      then    8n  offsets: n × (u32 LE src, u32 LE dst)
      then     -  Exec_log.Codec section (canon hash + shape
                  fingerprint in its header)
    v}

    {!Codec.encode} picks the version from the plan's shape: binary
    shapes emit the historical version-1 bytes (no shape block,
    version-1 log section), so every pre-existing plan file — and every
    new binary plan — is byte-identical to the classic format.
    Non-binary plans emit version 2.  {!Codec.decode} accepts both;
    version-1 input reads back with [shape = Cst.Shape.binary].

    Decode re-derives everything it can and believes nothing it
    cannot: the meta digest guards the header, shape block and offsets,
    the embedded log section's own digest guards the arena, the canon
    is rebuilt through {!Cst.Canon.of_offsets} (which re-validates
    canonicality and recomputes the hash), the rebuilt hash must equal
    the one stored in the log header — so a plan whose offsets and log
    were spliced from different plans is rejected as
    {!Codec.error.Canon_mismatch}, not returned as a plausible
    frankenplan — the shape block is revalidated through
    {!Cst.Shape.create} with its fingerprint checked against the log
    section's, and every log event is checked to lie inside the plan's
    block. *)
module Codec : sig
  type error =
    | Truncated of { expected : int; got : int }
    | Bad_magic
    | Unsupported_version of { found : int; expected : int }
    | Digest_mismatch  (** plan header/offsets fail the meta digest *)
    | Canon_mismatch
        (** the log section's stored canon hash differs from the hash
            of the canon rebuilt from the offsets *)
    | Bad_field of string
        (** a digest-valid field is semantically impossible (producer
            byte, non-canonical offsets, leaves not a power of two,
            incompatible placement, negative count, or a log event that
            names a node that is not a switch of the plan's tree — on
            binary shapes, not one of its block's subtree — or a
            delivery PE outside the block) *)
    | Log of Cst.Exec_log.Codec.error  (** embedded log section failed *)

  val pp_error : Format.formatter -> error -> unit

  val version : int
  val encoded_bytes : t -> int
  val encode : t -> bytes

  val decode : bytes -> (t, error) result
  (** Rejects trailing garbage after the log section as
      [Bad_field "trailing bytes"]. *)

  val write_file : path:string -> t -> unit
  (** Atomic publish: writes [path ^ ".tmp"] then renames over [path],
      so a concurrent reader sees either the old file or the new one,
      never a torn write.  Raises [Sys_error] on I/O failure. *)

  val read_file : path:string -> (t, error) result
  (** Raises [Sys_error] if the file cannot be opened or read; content
      problems come back as typed errors. *)
end
