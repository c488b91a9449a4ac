(** The 63-bit FNV-1a mix behind every hash and digest the repository
    stores or compares: shape fingerprints, canon hashes, the execution
    log's structural and arena digests and the plan codec's meta
    digest.  A value is xored into the state, multiplied by the 64-bit
    FNV prime and truncated to OCaml's non-negative ints, so every state
    is non-negative.  Changing either constant moves every committed
    digest and every plan file. *)

val basis : int
(** The starting state. *)

val mix : int -> int -> int
(** [mix h v] folds [v] into the state [h]. *)

val mix_range : int -> int array -> int -> int -> int
(** [mix_range h a pos len] folds [a.(pos)] .. [a.(pos + len - 1)] into
    [h], in order.  Dune's default (dev) profile compiles with
    [-opaque], so {!mix} is inlined into other modules only in release
    builds; the log digests fold runs of words through this one call
    instead of paying a call per word. *)
