(* Seeded job lists for the four workloads.

   Every list is a pure function of (workload, seed, size): the measured
   jobs, the recurring workload's translates and the stream's arrival
   offsets come from the seed; the warm-up lists of the cold, stream and
   blocks workloads come from a fixed seed, so set-up does the same work
   whatever the workload seed is.  The recurring workload's bases come
   from the fixed seed too: its latency tail is the translates of two or
   three bases, and with bases drawn per seed its p95 followed the seed
   (33-50 ms over five seeds).  The program under test only ever sees the
   generated sets. *)

module Set = Cst_comm.Comm_set
module Prng = Cst_util.Prng
module Gen_wn = Cst_workloads.Gen_wn

type kind = Cold | Recurring | Stream | Blocks
type size = Full | Small

let kinds =
  [ ("cold-1k", Cold); ("recurring-1k", Recurring);
    ("stream-poisson", Stream); ("blocks-16k", Blocks) ]

let name kind = fst (List.find (fun (_, k) -> k = kind) kinds)
let of_name s = List.assoc_opt s kinds

type t = {
  kind : kind;
  pes : int;
  engine : Cst_service.Service.engine;
  warmup : Set.t array;
      (** set-up work, run through the same loop before measuring; on
          [Recurring] it follows the base fault-ins *)
  bases : Set.t array;
      (** [Recurring]: compiled into a plan store before the clock
          starts, then faulted in once each during set-up *)
  measured : Set.t array;
  arrivals : float array;
      (** [Stream]: due offsets in seconds from the first due time *)
  rate : float;  (** [Stream]: Poisson arrival rate, jobs per second *)
}

(* Stream admission: commit once the queued jobs have waited 20 ms in
   total, or when the merged width would pass 64.  Each epoch costs the
   stream's default reconfiguration charge (16 power units). *)
let admission =
  Cst_service.Admission.Delta_threshold { delta = 0.02; max_width = Some 64 }

(* Fixed seed of the warm-up lists: set-up must not vary with the
   workload seed.  Measured lists draw from [2 * seed + 1], so they never
   share a stream with it. *)
let warmup_seed = 0x5e7

let embed ~n set = Set.create_exn ~n (Array.to_list (Set.comms set))
let levels n = Cst_util.Bits.ilog2 n

(* Job [i] of the width mix: even jobs are [with_width 2^k] with k
   cycling over 0 .. levels-2, odd jobs [uniform] with density cycling
   over 0.1 .. 1.0.  Cycling rather than drawing keeps the width
   distribution identical for every seed.  Width n/2 is left out of the
   cycle: on n PEs the only such set is the full onion, so it cannot
   recur as a distinct set. *)
let wn_mix rng ~n i =
  let j = i / 2 in
  if i mod 2 = 0 then
    Gen_wn.with_width rng ~n ~width:(1 lsl (j mod (levels n - 1)))
  else Gen_wn.uniform rng ~n ~density:(0.1 *. float_of_int (1 + (j mod 10)))

module Canon_tbl = Hashtbl.Make (struct
  type t = Cst.Canon.t

  let equal = Cst.Canon.equal
  let hash = Cst.Canon.hash
end)

(* [count] sets from [gen], redrawing any whose structural signature is
   already in [seen]: structurally distinct sets never share a plan. *)
let distinct seen count gen =
  Array.init count (fun i ->
      let rec draw () =
        let s = gen i in
        let c = (Cst.Canon.place s).canon in
        if Canon_tbl.mem seen c then draw ()
        else (
          Canon_tbl.add seen c ();
          s)
      in
      draw ())

(* A congruent translate of [set] to a random aligned slot. *)
let translate rng ~n set =
  let p = Cst.Canon.place set in
  let a = Cst.Canon.align p.canon in
  Gen_wn.translate ~by:((a * Prng.int rng (n / a)) - p.base) set

(* Base [b] of the recurring workload: the width mix, each set drawn on
   a sub-block of the tree so that it has room to translate.  The
   sub-block size cycles with the width (1024 >> (j mod 4) PEs, at least
   64 and twice the width), so set sizes do not depend on the seed. *)
let recurring_base rng ~n b =
  let j = b / 2 in
  let sub w = max (max (min 64 (n / 2)) (2 * w)) (n lsr (j mod 4)) in
  let inner =
    if b mod 2 = 0 then
      let w = 1 lsl (j mod levels n) in
      Gen_wn.with_width rng ~n:(sub w) ~width:w
    else
      Gen_wn.uniform rng ~n:(sub 1) ~density:(0.1 *. float_of_int (1 + (j mod 10)))
  in
  embed ~n inner

(* Stream mix: every fourth set is a crossing set of random pairs
   (wave-covered), the rest follow the well-nested width mix. *)
let stream_set rng ~n i =
  if i mod 4 = 3 then
    Cst_workloads.Gen_arbitrary.random_pairs rng ~n
      ~pairs:(n / 16 * (1 + (i / 4 mod 3)))
  else wn_mix rng ~n (i - (i / 4))

(* Blocks mix: 8, 16 or 32 independent low-width top-level blocks (a
   quarter of that on [Small]), alternating onions of depth 1-8 at random
   centres with tiled copies of a width-1..4 set.  Block count, depth and
   width cycle, so the mix does not depend on the seed. *)
let blocks_set rng ~n ~small i =
  let j = i / 2 in
  let nb = [| 8; 16; 32 |].(j mod 3) / if small then 4 else 1 in
  if i mod 2 = 0 then Gen_wn.nested_blocks rng ~n ~blocks:nb ~depth:(1 + (j mod 8))
  else
    Gen_wn.tile ~copies:nb
      (Gen_wn.with_width rng ~n:(n / nb) ~width:(1 lsl (j / 3 mod 3)))

let make ?(size = Full) kind ~seed =
  let small = size = Small in
  let rng = Prng.create ((2 * seed) + 1) in
  let wrng = Prng.create warmup_seed in
  let pick full sm = if small then sm else full in
  let base =
    {
      kind;
      pes = 0;
      engine = Cst_service.Service.Message_passing;
      warmup = [||];
      bases = [||];
      measured = [||];
      arrivals = [||];
      rate = 0.0;
    }
  in
  match kind with
  | Cold ->
      let n = pick 1024 64 in
      let seen = Canon_tbl.create 512 in
      let warmup = distinct seen (pick 80 4) (wn_mix wrng ~n) in
      let measured = distinct seen (pick 240 12) (wn_mix rng ~n) in
      (* One full onion (width n/2) in the middle of the list: the
         widest schedule, whose configuration snapshots set the peak
         memory. *)
      let mid = Array.length measured / 2 in
      measured.(mid) <- Gen_wn.onion ~n ~width:(n / 2);
      { base with pes = n; warmup; measured }
  | Recurring ->
      let n = pick 1024 64 in
      let drawn =
        distinct (Canon_tbl.create 64) (pick 32 4) (recurring_base wrng ~n)
      in
      let nb = Array.length drawn in
      (* Fault-ins and translates visit the bases in the order 0, 3, 6, ...
         (mod nb): the widest bases (drawn 14, 16 and 18) then come at
         least ten jobs apart and never run side by side. *)
      let bases = Array.init nb (fun i -> drawn.(3 * i mod nb)) in
      let translates count =
        Array.init count (fun i -> translate rng ~n bases.(i mod nb))
      in
      let warmup = translates (pick 128 4) in
      let measured = translates (pick 320 12) in
      { base with pes = n; bases; warmup; measured }
  | Stream ->
      let n = pick 256 64 in
      let rate = pick 135.0 400.0 in
      let count = pick 400 16 in
      let measured = Array.init count (stream_set rng ~n) in
      let arrivals =
        (Cst_workloads.Arrivals.poisson (Prng.split rng) ~rate ~jobs:count).times
      in
      let warmup = Array.init (pick 128 4) (stream_set wrng ~n) in
      let engine = Cst_service.Service.Spec in
      { base with pes = n; engine; warmup; measured; arrivals; rate }
  | Blocks ->
      let n = pick 16384 1024 in
      let warmup = Array.init (pick 16 2) (blocks_set wrng ~n ~small) in
      let measured = Array.init (pick 80 8) (blocks_set rng ~n ~small) in
      { base with pes = n; engine = Cst_service.Service.Segmented; warmup; measured }

let job (w : t) ~id set =
  Cst_service.Service.job ~engine:w.engine ~leaves:w.pes ~id ~algo:"csa" set

(* Every set the program runs, indexed by job id: the bases, the
   warm-up list, then the measured list. *)
let jobs (w : t) = Array.concat [ w.bases; w.warmup; w.measured ]

(* Job id of the first measured job. *)
let first (w : t) = Array.length w.bases + Array.length w.warmup

(* Identifies the job list, so a cached reference table can be checked
   against the jobs it claims to describe. *)
let fingerprint (w : t) =
  let b = Buffer.create 4096 in
  Array.iter (fun s -> Buffer.add_string b (Set.to_string s)) (jobs w);
  Array.iter (fun a -> Buffer.add_string b (Printf.sprintf "%h;" a)) w.arrivals;
  Digest.to_hex (Digest.string (Buffer.contents b))
