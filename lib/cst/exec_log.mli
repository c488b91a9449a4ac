(** Canonical execution log.

    Every scheduler run appends its behaviour — switch transitions,
    register writes, round boundaries and deliveries — as a flat
    sequence of typed events.  The log is the single source of truth:
    {!Schedule.of_log} (rounds, deliveries; config snapshots streamed
    on demand by {!Schedule.fold_configs}),
    {!Power_meter.of_log} (the entire power ledger), {!Trace.of_log}
    (pretty-printed narration) and the service digest are all pure
    derivations of it.

    {b Storage.} One event packs into one 63-bit native int in a
    growable arena: appends are an array store plus a bounds check, and
    a log of [n] events occupies [8n] bytes.  Positions ([length]) act
    as cursors: a producer records [length log] before a run and
    derives its views with [~from], so several runs — or several phases
    on a shared long-lived net — can share one log.

    {b Event grammar} (per run):
    [Phase_done? (Round_begin (Connect|Disconnect|Write_config)* Deliver* )* Run_end]

    Config-state replay always starts from the log's beginning, so
    snapshots taken for a suffix run still see connections carried over
    from earlier runs on the same net. *)

type event =
  | Phase_done of { levels : int }
      (** Phase 1 of the CSA (leader election / matching) completed. *)
  | Round_begin of { index : int }  (** 1-based round index. *)
  | Connect of { node : int; out_port : Side.t; in_port : Side.t }
      (** Output [out_port] of switch [node] acquired driver [in_port].
          A driver {e change} is a single [Connect] (paper §2.3). *)
  | Disconnect of { node : int; out_port : Side.t; in_port : Side.t }
      (** Output [out_port] lost its driver [in_port]. *)
  | Write_config of { node : int; count : int }
      (** [count] configuration-register installations at [node] —
          what eager per-round scheduling pays O(w) for. *)
  | Deliver of { src : int; dst : int }  (** PE-to-PE data delivery. *)
  | Run_end of { rounds : int }

type t

val create : ?capacity:int -> unit -> t
(** Empty log; the arena grows by doubling from [capacity] (default
    256 events). *)

val length : t -> int
(** Number of events appended so far — also the cursor for [?from]. *)

val bytes_used : t -> int
(** [8 * length t]: live arena bytes holding events. *)

val clear : t -> unit

(** {1 Appending} *)

val phase_done : t -> levels:int -> unit
val round_begin : t -> index:int -> unit
val connect : t -> node:int -> out_port:Side.t -> in_port:Side.t -> unit
val disconnect : t -> node:int -> out_port:Side.t -> in_port:Side.t -> unit
val write_config : t -> node:int -> count:int -> unit
val deliver : t -> src:int -> dst:int -> unit
val run_end : t -> rounds:int -> unit

val append : t -> event -> unit
(** Generic append; the named functions above avoid the allocation. *)

(** {1 Reading} *)

val event : t -> int -> event
(** Decode the event at a position.  Raises [Invalid_argument] outside
    [0 .. length - 1]. *)

val final_rounds : t -> int
(** The round count of the run that ends the log: its last event's
    [Run_end].  Raises [Invalid_argument] if the log does not end with
    one. *)

val iter : ?from:int -> ?upto:int -> t -> (event -> unit) -> unit
val fold : ?from:int -> ?upto:int -> t -> init:'a -> f:('a -> event -> 'a) -> 'a

val sub : t -> from:int -> t
(** Fresh log holding the events at positions [from ..]. *)

type config_kind = Connects | Disconnects | Writes

val iter_config :
  ?from:int -> ?upto:int -> t -> (config_kind -> int -> int -> unit) -> unit
(** [iter_config t f] calls [f kind node count] for every [Connect]
    ([Connects], count 1), [Disconnect] ([Disconnects], count 1) and
    [Write_config] ([Writes], its write count) in the range, in log
    order.  It reads the packed words directly: no event is decoded or
    allocated.  Nodes are reported as logged, unchecked. *)

val rebase :
  ?in_place:bool ->
  t ->
  src_leaves:int ->
  src_base:int ->
  dst_leaves:int ->
  dst_base:int ->
  align:int ->
  t
(** Relocates a compiled run in O(events) without re-scheduling.  The
    log must come from scheduling a set confined to the aligned leaf
    block [[src_base, src_base + align)] of a [src_leaves]-leaf tree
    (such a run never touches a switch outside the block's subtree nor
    a PE outside the block); the result is the event-for-event
    relabeling of the run onto the congruent block
    [[dst_base, dst_base + align)] of a [dst_leaves]-leaf tree: switch
    ids are remapped through the subtree isomorphism
    [v -> v + (dst_root - src_root) * 2^depth_below_root], PEs shift by
    [dst_base - src_base], and [Phase_done] is rewritten to the target
    tree's level count.  Replaying the result is byte-identical (same
    {!digest}) to scheduling the translated set from scratch.
    Raises [Invalid_argument] if the geometry is inconsistent (sizes
    not powers of two, bases not aligned multiples inside their trees)
    or if any event falls outside the declared block.

    [~in_place:true] rewrites [t]'s own arena and returns [t] instead
    of allocating a copy — for logs the caller owns exclusively (the
    segment-parallel engine rebases each private per-block log exactly
    once).  If the geometry check raises partway through, an in-place
    log is left partially rewritten. *)

val merge : ?into:t -> levels:int -> t list -> t
(** Interleaves complete single-run logs round-by-round into one log
    equivalent to a sequential run of their union.  Each input must
    follow the single-run grammar
    [Phase_done (Round_begin Config* Deliver* )* Run_end] with
    consecutive round indices from 1 and a [Phase_done] level count
    equal to [levels] — i.e. the inputs have already been {!rebase}d
    into one common tree.  The result (appended to [into] when given,
    else fresh) carries one [Phase_done {levels}], then for every round
    [r] up to the maximum round count one [Round_begin] followed by
    each input's round-[r] config events and then each input's round-[r]
    deliveries (input order both times), then one [Run_end].

    When the inputs are the per-block runs of a well-nested set's
    {e independent} top-level blocks, listed in ascending block order,
    the merged log is byte-identical (same {!digest}, same
    {!fold_rounds} views, same {!driver_alternations}) to the log of
    the sequential sparse engine on the whole set: block subtrees are
    link-disjoint, Phase 1 reports zero counts above every block root,
    and the sequential engine emits each round's deliveries in
    ascending source order — exactly the block concatenation.

    Raises [Invalid_argument] on a log that is not a complete
    single-run or whose level count differs from [levels]. *)

(** {1 Round-structured replay} *)

type round_view = {
  index : int;  (** as logged by [Round_begin] *)
  live : (int * Switch_config.t) list;
      (** all non-empty configurations at the end of the round,
          ascending node id; [[]] when [snapshots:false] *)
  deliveries : (int * int) list;  (** in emission order *)
}

val fold_rounds :
  ?from:int ->
  ?upto:int ->
  ?snapshots:bool ->
  t ->
  init:'a ->
  f:('a -> round_view -> 'a) ->
  'a
(** Replays the log and folds one {!round_view} per round.  Config
    state is replayed from position 0 regardless of [from] (carry-over
    on shared nets), but only rounds beginning at or after [from] are
    folded.  [snapshots:false] skips the config replay and the [live]
    computation: the pass then reads only round boundaries and
    deliveries. *)

(** {1 Analyses} *)

val digest : ?from:int -> ?upto:int -> t -> string
(** Structural digest (16 hex chars, FNV-1a-style).  Canonical across
    producers: config events between two non-config events are hashed
    as a sorted set, because a round's configuration delta has no
    meaningful order — the spec scheduler emits it in ascending node id
    while the sparse engine emits it in DFS preorder.  Round structure
    and delivery order are hashed as emitted.  Each run of config events
    is sorted in a per-domain int buffer, so a digest allocates only its
    result string once the buffer fits the longest run. *)

val driver_alternations : ?from:int -> ?upto:int -> t -> node:int -> int
(** Theorem 8 quantity (Lemmas 6/7): how often the busiest output port
    of switch [node] changes to a {e different} established driver over
    the range.  The first connect of a port is not an alternation, nor
    is a disconnect or a reconnect of the same driver — the count is
    the number of value changes in the port's driver sequence.  Under
    the CSA this is at most 2 on width-controlled families and a small
    width-independent constant on arbitrary sets; under eager
    ID-per-round scheduling it grows linearly with the set width. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
(** One numbered line per event. *)

(** {1 Binary codec}

    Versioned little-endian serialization of a log, the unit of the
    persistent plan store.  The layout is a fixed header followed by
    the raw event arena, one 8-byte word per event:

    {v
    offset  size  field
         0     8  magic "CSTELOG1"
         8     4  format version (u32 LE): 1 or 2
        12     4  reserved, zero
        16     8  canon hash     (u64 LE, caller-supplied tag; 0 if unused)
        24     8  event count    (u64 LE)
        32     8  arena digest   (u64 LE, FNV-1a over the packed words)
      [ 40     8  shape fingerprint (u64 LE) — version 2 only ]
     40/48 8<i>n</i>  the packed words, little-endian
    v}

    Version 1 (40-byte header) is the historical binary-topology format;
    version 2 appends the topology's {!Shape.fingerprint}.  {!Codec.encode}
    picks the version from the fingerprint it is given: fingerprint 0 —
    every binary shape — emits version 1, so classic files remain
    byte-identical; non-binary logs emit version 2.  {!Codec.decode}
    accepts both, and version-1 input reads back with fingerprint 0.

    Encode and decode are O(events) straight word blits with no
    per-event allocation.  Decode trusts nothing: it verifies the
    magic, the version, the declared length against the available
    bytes, the stored FNV-1a digest against the words actually read,
    and finally each word's tag — any failure is a typed
    {!Codec.error}, never an exception or a corrupt in-memory log. *)
module Codec : sig
  type error =
    | Truncated of { expected : int; got : int }
        (** fewer bytes than the header (or its declared count) demands *)
    | Bad_magic
        (** wrong magic string, or a corrupted reserved preamble slot *)
    | Unsupported_version of { found : int; expected : int }
    | Digest_mismatch
        (** the arena does not hash to the header's stored digest — a
            flipped or lost byte in the event words *)
    | Bad_word of { index : int }
        (** a word with an invalid tag or sign bit that nevertheless
            digests correctly — a crafted, not corrupted, payload *)

  val pp_error : Format.formatter -> error -> unit

  val version : int
  (** Newest format version (2); {!encode} still emits version 1 for
      fingerprint-0 logs. *)

  val header_bytes : int
  (** Version-1 header size: 40. *)

  val header_bytes_v2 : int
  (** Version-2 header size: 48. *)

  val encoded_bytes : ?shape_fp:int -> t -> int
  (** Header size for the version [shape_fp] (default 0) selects, plus
      [8 * length t]. *)

  val encode : ?canon_hash:int -> ?shape_fp:int -> t -> bytes
  (** Fresh buffer holding header + arena.  [canon_hash] (default 0)
      is stored verbatim in the header — the plan codec uses it to bind
      a log to its structural signature.  [shape_fp] (default 0) is the
      topology's {!Shape.fingerprint}; a non-zero value selects the
      version-2 header. *)

  val encode_into : ?canon_hash:int -> ?shape_fp:int -> t -> bytes -> pos:int -> int
  (** Writes the encoding at [pos] and returns the position one past
      it.  Raises [Invalid_argument] if the buffer is too small. *)

  val decode : ?pos:int -> bytes -> (t * int, error) result
  (** Decodes an encoding starting at [pos] (default 0); returns the
      fresh log and the position one past the bytes consumed.
      Trailing bytes after the declared arena are left unread. *)

  val canon_hash : ?pos:int -> bytes -> (int, error) result
  (** Reads the header's canon-hash field without decoding the arena
      (magic, version and header length still checked). *)

  val shape_fp : ?pos:int -> bytes -> (int, error) result
  (** Reads the header's shape fingerprint without decoding the arena;
      0 for version-1 input. *)
end
