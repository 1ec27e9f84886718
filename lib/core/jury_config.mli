(** The one front door for configuring a JURY deployment.

    [Jury_config.make] is a validated builder covering every knob that
    used to be scattered across [Validator.config] record literals,
    [Channel] profile parameters and [Validator.retransmit]:
    replication factor, timeouts, consensus ablations, policies,
    channel loss model, retransmission, degraded quorum, and the
    sharded/bounded validator introduced with it ([shards],
    [max_inflight], [batch]). The old record types remain public as the
    internal representation (and for record-literal construction in
    equivalence tests); their smart constructors are deprecated in
    favour of this module.

    A [Jury_config.make ()] with no arguments reproduces the seed
    deployment (k = 2) byte-for-byte. *)

type t
(** An immutable, validated configuration. *)

val make :
  ?k:int ->
  ?timeout:Jury_sim.Time.t ->
  ?adaptive_timeout:bool ->
  ?state_aware:bool ->
  ?nondet_rule:bool ->
  ?random_secondaries:bool ->
  ?policies:Jury_policy.Engine.t ->
  ?encapsulation:bool ->
  ?channel:Channel.profile ->
  ?drop:float ->
  ?duplicate:float ->
  ?jitter_us:float ->
  ?retransmit:Validator.retransmit ->
  ?degraded_quorum:int ->
  ?shards:int ->
  ?max_inflight:int ->
  ?batch:Jury_sim.Time.t ->
  ?deterministic_latencies:bool ->
  ?election:Jury_controller.Cluster.election_config ->
  unit -> t
(** Defaults match the seed: k 2, timeout 150 ms (800 ms when
    [encapsulation]), fixed timeout, state-aware consensus and the
    non-determinism rule on, random secondaries, no policies, reliable
    channel, no retransmission, no degraded quorum, 1 validator shard,
    unbounded in-flight state, per-event ingestion.

    The channel may be given either as a prebuilt [?channel] profile or
    inline via [?drop]/[?duplicate]/[?jitter_us] (validated through
    {!Channel.lossy}); passing both is an error. [shards] is a hint,
    rounded up to the next power of two. Out-of-range [k], [shards],
    [max_inflight], [batch] or [degraded_quorum] values and the
    channel conflict are all reported together, in one
    [Invalid_argument] naming every one.

    A [?policies] rule set is compiled here, once, into the
    {!Jury_policy.Compiled} decision structure the validator consults
    per response (memoised on the engine; see
    {!Jury_policy.Engine.compiled}).

    [deterministic_latencies] (default false) pins the replication and
    response-collection links to their base latencies — their jitter
    RNGs are never drawn — and forces [random_secondaries:false], so
    the replicator consumes no randomness at all. Pair it with
    {!Jury_controller.Profile.deterministic} to make a whole deployment
    jitter-free; the [Jury_mc] schedule explorer requires such a
    configuration (see DESIGN.md).

    [election] (default [None]) enables dynamic master election and
    mid-run failover re-attribution — see the [election] field of
    {!Deployment.config} and {!election}. *)

val retransmit :
  ?fraction:float -> ?backoff:float -> ?max_retries:int -> unit ->
  Validator.retransmit
(** Validated retransmission policy (defaults: first retry at 0.4·θτ,
    backoff 2.0, 2 rounds) — the facade's replacement for the
    deprecated [Validator.retransmit]. *)

val lossy_channel :
  ?drop:float -> ?duplicate:float -> ?jitter_us:float -> unit ->
  Channel.profile
(** Re-export of {!Channel.lossy} so callers can build a profile
    without leaving the facade. *)

val election :
  ?period:Jury_sim.Time.t -> ?timeout_beats:int -> unit ->
  Jury_controller.Cluster.election_config
(** Validated election tuning (defaults: 100 ms beat period, 3 missed
    beats to declare a node dead). Raises [Invalid_argument] on a
    non-positive period or [timeout_beats < 1]. *)

val deployment : t -> Deployment.config
(** The deployment record this configuration denotes — what
    {!Deployment.install} consumes. *)

val validator :
  ?min_timeout:Jury_sim.Time.t ->
  ?master_lookup:(Jury_openflow.Of_types.Dpid.t -> int option) ->
  ?term_lookup:(unit -> int) ->
  ?ack_peers_of:(int -> int list) ->
  t -> Validator.config
(** A bare validator configuration carrying this facade's knobs, for
    driving a {!Validator.t} without a deployment (tests, offline
    replay). The closures default like the historical
    [Validator.config] smart constructor. *)

val install : Jury_controller.Cluster.t -> t -> Deployment.t
(** [install cluster t] = [Deployment.install cluster (deployment t)]. *)

(** {1 Accessors} *)

val k : t -> int
(** Replication factor. *)

val timeout : t -> Jury_sim.Time.t
(** Validation timeout θτ (after adaptive/encapsulation adjustments). *)

val shards : t -> int
(** Normalised shard count (power of two). *)

val max_inflight : t -> int option
(** In-flight trigger bound, [None] = unbounded. *)

val batch_window : t -> Jury_sim.Time.t option
(** Response batching window, [None] = per-event ingestion. *)

val channel : t -> Channel.profile
(** Out-of-band channel profile the deployment will use. *)

val election_of : t -> Jury_controller.Cluster.election_config option
(** Election tuning, [None] when leadership is static. *)
