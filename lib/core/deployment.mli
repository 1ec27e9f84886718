(** JURY deployment: attach the replicator, per-node controller
    modules, and the out-of-band validator to a running cluster.

    Installing a deployment interposes on the cluster's southbound and
    northbound paths (the replicator, §IV-A), hooks every node's cache
    manager and network egress (the controller module, §VI-C), gives
    each node a shadow-execution pipeline for replicated triggers (the
    paper runs these on the controllers' spare cores, off the FLOW_MOD
    pipeline), and stands up the validator on an out-of-band link. *)

module Types = Jury_controller.Types
module Cluster = Jury_controller.Cluster

type config = {
  k : int;
      (** replication factor: secondaries per trigger, and the static
          peers whose cache-event acks the validator expects *)
  validator : Validator.config;
      (** the validator's parameters; {!install} replaces its three
          lookup closures with the cluster's and turns [state_aware]
          off on a standalone (non-[clustered]) profile *)
  random_secondaries : bool;
      (** sample k fresh secondaries per trigger (paper default) vs the
          primary's static peer set (ablation) *)
  deterministic_latencies : bool;
      (** pin the replication (200 µs) and response-collection
          (120 µs) links to their base latencies, drawing no jitter
          (otherwise exponential, mean 80 µs and 60 µs) *)
  encapsulation : bool;               (** ODL-style OVS replication *)
  channel : Channel.profile;
      (** loss model applied to every replication and
          response-collection link; {!Channel.reliable} reproduces the
          seed bit-for-bit *)
  batch_window : Jury_sim.Time.t option;
      (** when set, responses coming off the out-of-band links are
          accumulated for this long and handed to the validator as one
          per-shard batch; [None] = one {!Validator.deliver} per
          response (seed behaviour) *)
  election : Cluster.election_config option;
      (** when set, {!install} starts the cluster's deterministic
          master election ({!Cluster.enable_election}) and subscribes
          the replicator: a mid-run master crash re-attributes every
          undecided in-flight trigger of the failed node to its new
          master ({!Validator.reattribute}) and re-drives it there with
          the same taint, so validation continues across the leadership
          change instead of timing out. [None] = no election timer, no
          listener — churn-free runs stay byte-identical to the seed *)
}
(** Built by {!Jury_config.make}. Each secondary's shadow execution
    also loads its trigger's primary with 13 µs of pipeline time and
    96 bytes of mastership-status chatter (Hazelcast, §VII-B2). *)

type t

val install : Cluster.t -> config -> t
(** Interpose on the cluster. Install before {!Cluster.start} so that
    bootstrap triggers are validated too, or after for workload-only
    validation. *)

val validator : t -> Validator.t
(** The deployment's validator — verdicts and counters are read here. *)

val cluster : t -> Cluster.t
(** The cluster being interposed on. *)

val cfg : t -> config
(** The configuration {!install} was given. *)

val ack_peers : t -> int -> int list
(** Static peer set whose cache acks the validator expects for a given
    origin. *)

val rejoin_node : t -> node:int -> unit
(** Crash-and-rejoin recovery for a replica: clear its store partition,
    state-transfer its cache tables from the lowest-id healthy
    (alive, unpartitioned) peer via {!Jury_store.Fabric.resync},
    re-seed its node snapshot from that peer, invalidate its cached
    topology view, and mark it alive again in the cluster. Mastership
    is {e not} handed back — the node resumes as a secondary. Raises
    [Invalid_argument] when no healthy source exists. *)

(** {1 Overhead accounting} *)

val replication_bytes : t -> int
(** Bytes of replicated triggers sent to secondaries. *)

val validator_bytes : t -> int
(** Bytes of responses relayed to the validator. *)

val chatter_bytes : t -> int
(** Mastership-status chatter from secondaries to primaries. *)

val decap_samples_us : t -> float array
(** Per-replica decapsulation costs measured so far (Fig. 4i). *)

val replicated_trigger_count : t -> int
(** External triggers intercepted and replicated so far. *)

val reset_accounting : t -> unit
(** Zero the byte and trigger counters above (e.g. after warm-up). *)

(** {1 Channel health} *)

val channel_stats : t -> (string * Channel.stats) list
(** Per-link counters, replica links (["replica/i"]) first, then
    validator links (["validator/i"]). *)

val channel_totals : t -> Channel.stats
(** Sum over all links. *)
