(** The validator's kept verdicts: an append-only log, oldest first.

    JURY's validator decides every trigger it sees and keeps each
    verdict, so the log's size per verdict bounds how long a run can
    last. A common verdict (not [Faulty], no suspects, no detail, and
    fields in range) is stored as four unboxed ints in fixed-size
    [Bytes] chunks of 1024 entries, four words with no pointer in them:
    the taint (kind, node, serial), [trigger_at], [decided_at], and the
    verdict packed with its primary and term. Every other verdict,
    every fault included, is kept whole in a side store in decision
    order. Readers rebuild {!Alarm.t} values; a rebuilt taint is
    re-minted, so it is {!Jury_store.Taint.equal} to, not physically
    the same as, the one pushed. *)

type t

val create : unit -> t

val push :
  t -> taint:Jury_store.Taint.t -> trigger_at:Jury_sim.Time.t ->
  decided_at:Jury_sim.Time.t -> primary:int option -> suspects:int list ->
  term:int -> verdict:Alarm.verdict -> detail:string -> unit
(** Append one verdict, the fields as {!Alarm.t} names them. A verdict
    the compact form holds allocates nothing but the next chunk, once
    per 1024 verdicts, and now and then a longer array of chunks. *)

val add : t -> Alarm.t -> unit
(** [push] with the alarm's fields. *)

val to_list : t -> Alarm.t list
(** Every verdict, oldest first. Rebuilt on each call: O(n) time and
    about 19 words per verdict. *)

val faults : t -> Alarm.t list
(** The [Faulty] verdicts, oldest first. Reads only the side store. *)

val fold_since :
  t -> since:Jury_sim.Time.t -> init:'a ->
  ('a -> Alarm.verdict -> trigger_at:Jury_sim.Time.t ->
   decided_at:Jury_sim.Time.t -> 'a) -> 'a
(** Fold over the verdicts decided at or after [since], newest first,
    and stop at the first older one. Exact because [decided_at] never
    decreases along the log: the validator stamps the engine's clock,
    and a staged merge sorts by [decided_at]. Builds no {!Alarm.t}: a
    compact row's verdict is a constant constructor, and a side row's
    is read from the side store. *)

val append : t -> t -> unit
(** [append dst src] pushes [src]'s verdicts, oldest first, after
    [dst]'s. *)

val of_list : Alarm.t list -> t
(** A log holding these verdicts in this order. *)
