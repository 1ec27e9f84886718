(** The one front door for configuring a JURY deployment.

    [Jury_config.make] is a validated builder covering every knob:
    replication factor, timeouts, consensus ablations, policies,
    channel loss model, retransmission, degraded quorum, the sharded
    and bounded validator ([shards], [max_inflight], [batch]) and
    master election. It builds the deployment's {!Validator.config}
    once; {!validator} and {!Deployment.install} only replace that
    record's lookup closures.

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
    [encapsulation]; an explicit [timeout] wins either way), fixed
    timeout, state-aware consensus and the non-determinism rule on,
    random secondaries, no policies, reliable channel, no
    retransmission, no degraded quorum, 1 validator shard, unbounded
    in-flight state, per-event ingestion, jittered links, no election.

    The channel loss model is [?drop]/[?duplicate]/[?jitter_us],
    validated by {!Channel.lossy}; all three zero (or omitted) is the
    reliable channel. [shards] is a hint, rounded up to the next power
    of two. Out-of-range [k], [shards], [max_inflight], [batch] or
    [degraded_quorum] values and an [election] with a non-positive
    period or [timeout_beats < 1] are all reported together, in one
    [Invalid_argument] naming every one.

    A [?policies] rule set is compiled here, once, into the
    {!Jury_policy.Compiled} decision structure the validator consults
    per response (memoised on the engine; see
    {!Jury_policy.Engine.compiled}).

    [deterministic_latencies] (default false) pins the replication and
    response-collection links to their base latencies — their jitter
    RNGs are never drawn — and forces [random_secondaries] to [false]
    whatever was passed, so the replicator consumes no randomness at
    all. Pair it with {!Jury_controller.Profile.deterministic} to make
    a whole deployment jitter-free; the [Jury_mc] schedule explorer
    requires such a configuration (see DESIGN.md).

    [election] (default [None]) enables dynamic master election and
    mid-run failover re-attribution — see the [election] field of
    {!Deployment.config}. *)

val retransmit : ?max_retries:int -> unit -> Validator.retransmit
(** Validated retransmission policy: first retry at 0.4·θτ, backoff
    2.0, at most [max_retries] rounds (default 2). Raises
    [Invalid_argument] on a negative [max_retries].

    The second round is due at 0.4·θτ + 0.8·θτ = 1.2·θτ, after the
    validation timeout has already decided the trigger, so it fires
    only when a failover re-attribution restarted the trigger's clock
    or an adaptive θτ shrank after registration. Otherwise
    [max_retries] of 2 or more behaves like 1, the default included. *)

val validator : ?ack_peers_of:(int -> int list) -> t -> Validator.config
(** The configuration's validator record, for driving a
    {!Validator.t} without a deployment (tests, offline replay), with
    the given ack peers (default: no node has any). Its other lookups
    are [make]'s detached defaults: no switch has a master and the term
    stays 0. *)

val install : Jury_controller.Cluster.t -> t -> Deployment.t
(** [install cluster t] interposes the deployment [t] denotes on
    [cluster] (see {!Deployment.install}). *)

(** {1 Accessors} *)

val timeout : t -> Jury_sim.Time.t
(** Validation timeout θτ: the explicit [?timeout], else 150 ms, or
    800 ms with [encapsulation]. *)

val shards : t -> int
(** Normalised shard count (power of two). *)
