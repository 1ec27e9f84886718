(** Administrator-facing alarm reports.

    The paper (§V): "In event of an alarm, JURY extracts information
    about the offending controller, trigger and the associated response,
    and presents it to the administrator for further action." This
    module is that presentation layer: it aggregates a validator's
    verdicts into per-controller and per-fault-kind summaries and
    renders them. Used by `jury_cli` and the examples. *)

type suspect_row = {
  controller : int;
  alarm_count : int;
  fault_kinds : (string * int) list;  (** kind → occurrences, desc. *)
  first_at : Jury_sim.Time.t;
  last_at : Jury_sim.Time.t;
}

type t = {
  decided : int;
  ok : int;
  non_deterministic : int;
  unverifiable : int;
  degraded : int;  (** reduced-quorum decisions on a lossy channel *)
  overload : int;  (** triggers force-expired at the in-flight cap *)
  faulty : int;
  suspects : suspect_row list;  (** most-implicated first *)
  detection : Jury_stats.Summary.t option;
      (** over all verdicts; [None] if nothing was decided *)
}

val of_validator : Validator.t -> t
(** Roll up everything the validator has decided so far. *)

val healthy : t -> bool
(** No faulty verdicts at all. *)

val most_suspect : t -> int option
(** The controller implicated most often, if any. *)

val pp : Format.formatter -> t -> unit
(** Multi-line summary: headline counters, then a suspect table. *)

val to_string : t -> string
(** [pp] rendered to a string. *)
