(** JURY's decision — Algorithm 1 of the paper, as a pure function.

    The validator groups responses by trigger taint τ and decides each
    trigger's verdict when its response set is complete or its
    validation timer θτ expires:

    + {b CONSENSUS}: the primary's planned response must match the
      majority of replicated executions among secondaries whose state
      snapshot equals the primary's (state-aware consensus, §IV-C A).
      All-distinct responses are labelled non-deterministic and pass
      (§IV-C B).
    + {b SANITY_CHECK}: FLOWSDB cache updates and intercepted FLOW_MOD
      network writes must correspond one-to-one (T2 detection).
    + {b POLICY_CHECK}: the primary's response is evaluated against the
      administrator's policy rules (T3 detection).

    A missing primary response at timer expiry is a response-omission /
    timing fault attributed to the primary (§IV-C C).

    This module holds those rules and nothing else. {!verdict} reads
    only its arguments: the config, the validator's flow mirror and one
    trigger's filed responses. It reads no engine, clock or counter,
    and writes nothing. Filing by shard, timers, retransmission and
    observers stay in {!Validator}.

    Every response a trigger gets is filed and then tested for
    completeness, so both read the filed lists in place and allocate
    only what they keep: {!record} the filed entry, {!complete}
    nothing. When the replicas agree, {!verdict} allocates the decision,
    the agreement count and the sanity check's resolved cache entries.
    Only when replicas disagree does it build action fingerprints and
    vote lists; findings, notes and the policy queries are built only
    when there is something to report or rules to check. *)

module Types = Jury_controller.Types

(** {!Validator.retransmit} and {!Validator.config}, defined here so
    that {!verdict} can read the config; their fields are documented
    there. *)

type retransmit = { max_retries : int }

type config = {
  timeout : Jury_sim.Time.t;
  adaptive_timeout : bool;
  state_aware : bool;
  nondet_rule : bool;
  policies : Jury_policy.Engine.t;
  master_lookup : Jury_openflow.Of_types.Dpid.t -> int option;
  term_lookup : unit -> int;
  ack_peers_of : int -> int list;
  retransmit : retransmit option;
  degraded_quorum : int option;
  shards : int;
  max_inflight : int option;
}

type rule = Jury_openflow.Of_types.Dpid.t * Jury_openflow.Of_message.flow_mod
(** A FLOWSDB entry read as its switch and flow rule. *)

type mirror = (string, string) Hashtbl.t
(** The validator's FLOWSDB replica, built from every cache update it
    has seen: key -> the value string the update carried, the string
    the store holds too. It keeps no parsed rule. The parse of a new
    value lives on the trigger that reported it, in the [rule] of the
    update's first {!report}; the sanity check parses a mirrored value
    only to back a re-sent FLOW_MOD with no cached install in its own
    trigger, which is rare. *)

val mirror_write : mirror -> string -> string -> rule option
(** [mirror_write m key value] files a FLOWSDB create or update, and
    returns the switch and rule it parsed from [value] for {!record} to
    keep on the update's report. It parses only a value the key does
    not hold already, and returns [None] when it parsed nothing, when
    [value] is no rule (which leaves the key's entry as it was) or when
    [key] names no switch. *)

(** {1 The filed responses} *)

type report = {
  reporter : int;
  event : Jury_store.Event.t;
  first : bool;  (** the first report of its (origin, seq) *)
  ack : bool;
      (** a peer of the origin reporting the event for the first time:
          what completeness counts toward the origin's ack quorum *)
  rule : rule option;
      (** on the first report of a FLOWSDB create or update only: the
          switch and rule {!mirror_write} parsed from its value. The
          parse lives as long as the trigger does; the sanity check
          reads the install from here, and parses the value itself only
          when the update brought no parse. *)
}
(** One accepted [Cache_update]. *)

type write = {
  sender : int;
  dpid : Jury_openflow.Of_types.Dpid.t;
  flow : Jury_openflow.Of_message.flow_mod;
  first : bool;  (** the first delivery of its (dpid, encoding) *)
}
(** One accepted intercepted FLOW_MOD. *)

type input = {
  taint : Types.Taint.t;
  mutable primary : int option;
  mutable term : int;  (** leadership term; bumped when re-attributed *)
  secondaries : int list;
  mutable executions : Response.t list;
  mutable reports : report list;
  mutable writes : write list;
  mutable failures : (int * Types.action * string) list;
}
(** One trigger's accepted responses, each list newest first, and who
    should have sent them. *)

val record : input -> ?rule:rule -> Response.t -> bool
(** File an arriving response in its list, setting the [first] and
    [ack] flags the checks read, and keeping [rule], what
    {!mirror_write} parsed from a FLOWSDB update, on the update's first
    report. Returns [false], filing nothing, for a
    stale channel duplicate: a second Execution from the same
    (controller, role), or the same body again from the same
    controller. The first delivery wins, so a duplicate can never
    satisfy consensus or a quorum twice. Allocates only the filed
    entry. *)

val complete : config -> input -> bool
(** Whether the trigger can be decided before its timer: every listed
    secondary has sent its execution (one from any other controller, a
    stray, neither counts here nor votes in the verdict), each of the
    primary's
    cache writes has arrived and been acked by all of the origin's
    peers, and each of its FLOW_MODs is on the wire. Allocates
    nothing. *)

val stragglers : input -> int list
(** Secondaries that never produced an Execution response. Allocates
    only the list it returns, so nothing when everyone answered. *)

(** {1 The verdict} *)

type decision = {
  verdict : Alarm.verdict;
  suspects : int list;  (** unsorted, possibly repeated *)
  detail : string;
}

val verdict :
  config -> mirror:mirror -> input -> timed_out:bool -> decision option
(** The trigger's verdict, or [None] while it cannot be decided yet (no
    primary execution before the timer). [timed_out] says the timer
    expired: only then are missing cache events, stray FLOW_MODs and a
    lost primary judged, and a degraded quorum considered. *)
