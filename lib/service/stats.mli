(** One renderer for every service-side counter record.

    {!Plan_cache}, {!Plan_store}, the domain pool and the streaming
    scheduler each keep their own typed stats record; before this module
    each also kept its own formatter, and the CLI, the serve protocol and
    the bench harness re-rolled the JSON by hand.  Now every owner
    converts its record to neutral {!section}s ([Plan_cache.sections],
    [Plan_store.sections], [Stream.sections], {!throughput}) and the
    three consumers — [cstool --cache-stats], the serve [STATS] reply and
    [bench/main.ml] — print through {!pp} / {!to_json} / {!fields_to_json}
    from this single source. *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string
  | Rows of (string * value) list list
      (** a nested list of flat objects, e.g. a per-domain timing grid *)

type section = {
  name : string;  (** e.g. ["plan_cache"], ["stream"] *)
  fields : (string * value) list;  (** insertion order is print order *)
}

type t = section list

val section : string -> (string * value) list -> section

val throughput :
  jobs:int -> failed:int -> domains:int -> elapsed_s:float -> section
(** The service-throughput section shared by [cstool batch] and the
    bench: jobs, failures, domain count, wall seconds and jobs/sec. *)

val fields_to_json : (string * value) list -> string
(** One JSON object on one line: [{"k": v, ...}].  Floats render with
    enough digits to round-trip; strings are quoted and escaped; a
    [Rows] value renders as an array of objects. *)

val to_json : t -> string
(** One JSON object keyed by section name, each section a flat object
    ({!fields_to_json}), all on one line — the serve [STATS] reply. *)

val pp : Format.formatter -> t -> unit
(** Human-readable: one [name: k=v k=v ...] line per section. *)

val pp_value : Format.formatter -> value -> unit
