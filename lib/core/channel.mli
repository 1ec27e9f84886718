(** Unreliable message channels between JURY's components.

    The paper assumes the replication and response-collection links are
    reliable; real deployments are not (message loss, duplication and
    reordering are first-class transitions in the SDN model-checking
    literature). A {!t} sits between a sender and [Engine.schedule]:
    each {!send} may drop the message, delay it by reorder jitter, or
    deliver a stale duplicate, while keeping per-link health counters
    the validator and figures read back.

    A channel with the {!reliable} profile is {e guaranteed} to behave
    bit-for-bit like a bare [Engine.schedule]: exactly one event at
    exactly the requested delay and no RNG draws, so zero-loss runs
    reproduce the seed's verdicts and detection times exactly. *)

type profile = {
  drop : float;        (** per-message loss probability, [0,1] *)
  duplicate : float;   (** probability a delivered message is duplicated *)
  jitter_us : float;   (** mean exponential reorder jitter added to the
                           base delay; 0 = none *)
}

val reliable : profile
(** No loss, no duplication, no jitter. *)

val lossy :
  ?drop:float -> ?duplicate:float -> ?jitter_us:float -> unit -> profile
(** Validated constructor; raises [Invalid_argument] on probabilities
    outside [0,1] or negative/NaN jitter. *)

val is_reliable : profile -> bool
(** Whether the profile is loss-free, duplicate-free and jitter-free —
    such a channel is structurally identical to {!reliable} and never
    draws from its RNG. *)

type stats = {
  mutable sent : int;          (** messages offered to the channel *)
  mutable delivered : int;     (** messages that got through (once each) *)
  mutable dropped : int;       (** messages lost; sent = delivered + dropped *)
  mutable duplicated : int;    (** extra stale copies delivered *)
  mutable retransmitted : int; (** sender-side retries routed through this
                                   link (counted by the caller via
                                   {!note_retransmit}; retries also count
                                   in [sent]) *)
}

val fresh_stats : unit -> stats
(** All-zero counters. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum (a fresh record; neither argument is mutated). *)

val total : stats list -> stats
(** Field-wise sum of many links' counters. *)

type t

val create :
  Jury_sim.Engine.t -> rng:Jury_sim.Rng.t -> ?name:string -> profile -> t
(** The channel shares the caller's RNG: with a reliable profile it
    never draws from it, so attaching channels does not perturb seeded
    runs. *)

val name : t -> string
(** The label given at {!create} (defaults to ["chan"]). *)

val stats : t -> stats
(** Live counters — the record mutates as the channel runs. *)

val profile : t -> profile
(** The profile the channel was created with. *)

val send :
  t -> footprint:Jury_sim.Footprint.t -> delay:Jury_sim.Time.t ->
  (unit -> unit) ->
  [ `Delivered | `Dropped | `Duplicated ]
(** Offer a message. [`Dropped] means the callback will never run;
    [`Duplicated] means it will run twice (once at [delay] + jitter,
    once later). The delivered-copy count equals
    [delivered + duplicated]. [footprint] is attached to every
    delivered copy's event (see {!Jury_sim.Engine.schedule_on}); it never
    affects delivery. *)

val note_retransmit : t -> unit
(** Count a sender-side retry against this link (see [stats]). *)

val pp_stats : Format.formatter -> stats -> unit
(** Compact [sent/delivered/dropped/...] rendering. *)
