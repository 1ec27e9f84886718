(** The decision rule of §IV as DESIGN.md's "The decision rule" states
    it, over one trigger's raw arrivals: the reference of record for
    {!Jury.Decide}, written to be read, not run fast. It shares no
    function with [Decide] and checks policy with the
    {!Jury_policy.Engine.check} interpreter, not the compiled trie. *)

type trigger = {
  taint : Jury_controller.Types.Taint.t;
  primary : int option;
  secondaries : int list;
  arrivals : Jury.Response.t list;  (** in order, duplicates included *)
}

type decision = {
  verdict : Jury.Alarm.verdict;  (** faults sorted, without repeats *)
  suspects : int list;  (** sorted, without repeats *)
}

val duplicate : earlier:Jury.Response.t list -> Jury.Response.t -> bool
(** Whether a response repeats one of the [earlier] arrivals (the same
    body from the same controller, or its Execution in the same role). *)

val stragglers : trigger -> int list
(** The secondaries, in order, that sent no secondary execution. *)

val decide :
  Jury.Decide.config -> mirror:Jury.Decide.mirror -> trigger ->
  timed_out:bool -> decision option
(** The verdict, or [None] to keep waiting: before the timer until the
    trigger is complete, at the timer never. *)
