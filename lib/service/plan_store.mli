(** On-disk tier of the plan cache.

    A store is a flat directory of {!Padr.Plan.Codec} files, one plan
    per file, named by the cache key ([canon hash, algorithm, engine,
    tree size]).  {!Plan_cache} spills LRU evictions here and faults
    misses back in, so a service restarted against the same directory
    replays its working set instead of recompiling it — the cold-start
    experiment in EXPERIMENTS.md measures the difference.

    {b Durability.} Writes are atomic publishes ([.tmp] + rename): a
    reader — another process included — sees the old file or the new
    one, never a torn write.  Reads trust nothing: every fault-in
    re-decodes the file, whose digests, canon hash and field ranges are
    verified by the codec; a file that fails any check is {e
    quarantined} (renamed to [*.corrupt], counted) and reported as a
    miss, never an exception — a corrupt store degrades to recompiles,
    it cannot crash the service.

    {b Keys and collisions.} Filenames carry only the canon hash —
    mixed with the topology's {!Cst.Shape.fingerprint} via
    {!Cst.Canon.hash_with}, which leaves binary-shape filenames exactly
    as they always were; full structural equality (canon {e and} shape)
    is re-checked against the decoded plan, so a hash collision is a
    plain miss, not a wrong plan.

    {b Budget.} Like the in-memory tier the store is byte-bounded LRU
    (default 256 MiB of encoded plans).  Recency is kept in memory and
    mirrored to file mtimes (best effort), so a reopened store resumes
    its LRU order from the filesystem.

    All operations take the store's single [Mutex]; the I/O under it is
    one file read or write.  Lock order is cache before store —
    {!Plan_cache} calls into this module, never the reverse. *)

type t

val open_dir : ?max_bytes:int -> string -> t
(** Opens (creating directories as needed) a store rooted at the given
    directory and indexes the [*.plan] files already present, oldest
    mtime first; if they exceed [max_bytes] (default 256 MiB) the
    oldest are evicted immediately.

    Raises [Unix.Unix_error] if a missing directory on the path cannot
    be created — [ENOTDIR] when the path lies under a file, [EACCES]
    without permission — and [Sys_error] if the directory cannot be
    read, as when the path itself names a file.  [cstool] turns both
    into one message naming the path. *)

val dir : t -> string

val find :
  t ->
  algo:string ->
  engine:bool ->
  shape:Cst.Shape.t ->
  base:int ->
  canon:Cst.Canon.t ->
  Padr.Plan.t option
(** Faults the plan for a cache key in from disk: decode, verify (codec
    digests, full {!Cst.Canon.equal} and {!Cst.Shape.equal},
    producer consistency, and — non-binary shapes only, since their
    plans replay solely at their compiled placement — [base]
    equality), bump recency.  [None] on absence, hash collision, or
    quarantined corruption. *)

val store : t -> algo:string -> engine:bool -> Padr.Plan.t -> unit
(** Atomically writes the plan under its key (leaves and canon come
    from the plan itself), then evicts LRU files beyond the byte
    budget.  A plan alone exceeding the whole budget is not admitted;
    I/O failure (disk full, permissions) makes the store a no-op — the
    disk tier is an accelerator, never a correctness dependency. *)

type stats = {
  hits : int;  (** fault-ins that returned a verified plan *)
  misses : int;  (** absences, collisions and corruptions *)
  stores : int;  (** successful writes (spills and imports) *)
  evictions : int;  (** files removed by the byte budget *)
  corrupt : int;  (** files quarantined on decode failure *)
  entries : int;  (** resident plan files *)
  bytes : int;  (** resident encoded bytes *)
  max_bytes : int;
}

val stats : t -> stats

val sections : stats -> Stats.t
(** The counters as one ["plan_store"] {!Stats.section} (adds a derived
    [hit_pct] field) — the single source {!pp_stats}, [cstool], the
    serve [STATS] reply and the bench print from. *)

val pp_stats : Format.formatter -> stats -> unit
(** [Stats.pp] of {!sections}. *)
