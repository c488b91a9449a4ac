(** A segmentable bus and its compilation onto the CST.

    The segmentable bus is the fundamental reconfigurable architecture the
    paper's introduction cites: [n] PEs on a linear bus with a segment
    switch between each adjacent pair.  Opening switches cuts the bus into
    independent segments; within a segment, one writer per step drives the
    bus and one reader latches it.

    The communication requirement of one bus step is a set of one
    (writer, reader) pair per segment — disjoint intervals, hence a
    well-nested set of width 1 per orientation.  Compiling bus steps to
    CST schedules and comparing deliveries against the direct bus
    semantics is an end-to-end check of the paper's subsumption claim. *)

type t

val create : n:int -> t
(** All segment switches closed: one segment spanning the bus. *)

val n : t -> int

val cut : t -> int -> unit
(** Opens the switch between PE [i] and PE [i+1] ([0 <= i < n-1]). *)

val join : t -> int -> unit
val is_cut : t -> int -> bool

val segments : t -> (int * int) list
(** Inclusive [(lo, hi)] ranges, left to right. *)

val segment_of : t -> int -> int * int

type write = { writer : int; reader : int }

type error =
  | Cross_segment of write  (** writer and reader in different segments *)
  | Bus_contention of int  (** two writers in the segment of this PE *)
  | Self_write of write
  | Scheduler of Padr.error
      (** the CST scheduler rejected the compiled set — structurally
          impossible for sets built by {!to_comm_set}, but propagated as
          data rather than as a stringified exception *)

val pp_error : Format.formatter -> error -> unit

val run_bus : t -> write list -> ((int * int) list, error) result
(** Direct bus semantics: each writer drives its segment, its reader
    latches.  Returns (writer, reader) deliveries sorted by writer. *)

val to_comm_set : t -> write list -> (Cst_comm.Comm_set.t, error) result
(** The CST communication set of one bus step. *)

val run_on_cst : t -> write list -> (Padr.Waves.t, error) result
(** Compiles and schedules the step on a CST via {!Padr.Waves.schedule}:
    one wave per orientation present.  Deliveries
    ({!Padr.Waves.deliveries}) equal {!run_bus}'s. *)
