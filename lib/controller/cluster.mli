(** An HA controller cluster wired to a data plane.

    Owns the shared store fabric, the [n] controller replicas, switch
    mastership, and the control channels. The southbound and northbound
    paths are interposable: JURY's replicator installs hooks here to
    intercept, taint and replicate triggers without the cluster (or the
    controllers) knowing — mirroring the paper's OVS-based replicator
    that "executes outside the controller binary". *)

open Jury_openflow

type t

(** A southbound hook sees every switch→controller message that is a
    trigger ({!trigger_of_message}) before delivery, with the trigger
    already classified; no controller consumes any other message.
    [forward ?taint ?to_ ()] delivers the trigger to a replica ([to_]
    defaults to the master) through its pipeline; calling it several
    times replicates the trigger. Not calling it drops the message. *)
type southbound_hook =
  dpid:Of_types.Dpid.t ->
  master:int ->
  msg:Of_message.t ->
  trigger:Types.trigger ->
  forward:(?taint:Types.Taint.t -> ?to_:int -> unit -> unit) ->
  unit

type northbound_hook =
  node:int ->
  request:Types.rest_request ->
  forward:(?taint:Types.Taint.t -> ?to_:int -> unit -> unit) ->
  unit

type election_config = {
  period : Jury_sim.Time.t;  (** liveness-probe beat period *)
  timeout_beats : int;
      (** consecutive missed beats before a node is declared dead *)
}
(** Tuning for the deterministic master-election protocol
    ({!enable_election}). *)

val create :
  Jury_sim.Engine.t -> profile:Profile.t -> nodes:int ->
  network:Jury_net.Network.t -> t
(** Builds the fabric (standalone when the profile is not
    [clustered]), the [nodes] controller replicas and the control
    channels (150 µs one way). Election is off until
    {!enable_election}. The replicas share one fresh
    {!Values.Flow.Memo.t} and one fresh {!Controller.Views.t}. *)

val engine : t -> Jury_sim.Engine.t
val fabric : t -> Jury_store.Fabric.t
val network : t -> Jury_net.Network.t
val profile : t -> Profile.t
val nodes : t -> int
val controllers : t -> Controller.t array
val flow_memo : t -> Values.Flow.Memo.t
val controller : t -> int -> Controller.t
val master_of : t -> Of_types.Dpid.t -> int

val view_words : t -> int
(** {!Controller.Views.words} of the replicas' topology views. *)

val start : t -> unit
(** Assign mastership (round-robin over switches for clustered
    profiles; everything to the leader for standalone ones), connect
    every switch (HELLO + FEATURES_REPLY to its master), begin LLDP
    discovery on all replicas. Call once; run the engine afterwards to
    let discovery converge (a few LLDP periods). *)

(** {1 Leadership} *)

val enable_election : t -> election_config -> unit
(** Start the deterministic term-numbered election protocol: an engine
    timer beats every [period]; a node that is administratively failed
    or deterministically silent ({!Controller.omit_probability} ≥ 1)
    for [timeout_beats] consecutive beats is declared dead — the term
    increments, its switches fail over ({!fail_over}), the leader is
    re-elected as the lowest healthy id, and every
    {!on_leadership_change} listener fires. The detector reads fault
    levers instead of probing, so it draws no RNG: the same seed
    always yields the same term sequence, and with election disabled
    the cluster schedules zero extra events (churn-free runs stay
    byte-identical to the seed). Idempotent; raises
    [Invalid_argument] on a non-positive period or [timeout_beats < 1]. *)

val election_enabled : t -> bool

val current_term : t -> int
(** Current leadership term: [0] when election is disabled, [1] once
    enabled, incremented on every declared death. *)

val leader : t -> int
(** Current leader id ([0] when election is disabled). In standalone
    mode the leader masters every switch. *)

val on_leadership_change :
  t -> (term:int -> failed:int -> leader:int -> unit) -> unit
(** Subscribe to elections: fires once per declared death, after
    mastership has failed over, with the new [term], the [failed] node
    and the new [leader]. Raises [Invalid_argument] when election is
    not enabled. *)

val converge : t -> unit
(** {!start} plus running the engine long enough for SWITCHDB, LINKSDB
    and mastership to stabilise (three discovery periods). *)

val rest : t -> node:int -> Types.rest_request -> unit
(** Northbound request to a specific replica (external trigger). *)

val query_flows :
  t -> node:int -> Of_types.Dpid.t -> Jury_openflow.Of_message.flow_mod list
(** Northbound read: the flow rules the given replica's store view holds
    for a switch. Reads have no side effects and are answered locally
    (the REST GET path), so they bypass the trigger pipeline. *)

val fail_over : t -> node:int -> unit
(** HA failover: reassign every switch mastered by [node] to the
    surviving replicas (round-robin for clustered profiles; all to the
    lowest survivor for standalone ones), publish the new mastership
    in MASTERDB (into every instance's local table when standalone),
    and have the switches re-announce to their new masters. The failed
    replica itself is not otherwise altered — combine with
    {!Jury_faults.Injector.crash} to silence it. *)

val alive_nodes : t -> int list
(** Replicas that still master at least one switch or have never been
    failed over. *)

val rejoin : t -> node:int -> unit
(** The failed node counts as alive again (future failovers may assign
    it mastership), and the election failure detector — if enabled —
    forgets its suspicion so a later crash starts a fresh term. Does
    {e not} restore its store state or response levers —
    [Jury_faults.Injector.rejoin] (which depends on this library)
    composes this with the heal and the {!Jury_store.Fabric.resync}
    state transfer. *)

val set_southbound_hook : t -> southbound_hook -> unit
val set_northbound_hook : t -> northbound_hook -> unit

val trigger_of_message :
  Of_types.Dpid.t -> Of_message.t -> Types.trigger option
(** Southbound message → trigger conversion (PACKET_IN, PORT_STATUS,
    FEATURES_REPLY, FLOW_REMOVED; [None] for echo traffic etc.). *)
