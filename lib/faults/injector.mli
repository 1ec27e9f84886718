(** Generic fault levers applied to a controller replica.

    These compose the paper's five failure classes (§III-B): response
    faults via action mutators, omission and timing faults via the
    response-fate knobs, crash as total omission, and arbitrary faults
    as random combinations. Every lever is reversible with {!heal}. *)

module Types = Jury_controller.Types
module Cluster = Jury_controller.Cluster

val drop_cache_writes_to : cache:string -> Types.trigger -> Types.action list -> Types.action list
(** Mutator: silently lose cache writes to the given cache. *)

val corrupt_cache_values_to :
  cache:string -> value:string -> Types.trigger -> Types.action list ->
  Types.action list
(** Mutator: rewrite values written to the given cache. *)

val drop_network_sends : Types.trigger -> Types.action list -> Types.action list
(** Mutator: keep cache writes, lose every network send (the classic
    T2 "lost FLOW_MOD"). *)

val blackhole_flow_mods : Types.trigger -> Types.action list -> Types.action list
(** Mutator: rewrite every outgoing FLOW_MOD's actions into a drop rule
    while leaving the cache writes intact (the "undesirable FLOW_MOD"
    T2 fault). *)

val byzantine_actions : Types.trigger -> Types.action list -> Types.action list
(** Mutator: plausible-but-wrong responses (the Byzantine / arbitrary
    fault class): cache writes keep their shape but carry corrupted
    values, and FLOW_MODs are re-pointed at a perturbed physical output
    port. Deterministic, so the node is consistently wrong in
    replicated execution too. *)

val probabilistic :
  Jury_sim.Rng.t -> float ->
  (Types.trigger -> Types.action list -> Types.action list) ->
  Types.trigger -> Types.action list -> Types.action list
(** Apply the inner mutator with the given probability (threading-race
    style intermittent faults). *)

val compose :
  (Types.trigger -> Types.action list -> Types.action list) list ->
  Types.trigger -> Types.action list -> Types.action list

(** {1 Whole-replica levers} *)

val make_slow : Cluster.t -> node:int -> delay:Jury_sim.Time.t -> unit
(** Timing fault: every response from the node is delayed. *)

val make_lossy : Cluster.t -> node:int -> omit_probability:float -> unit
(** Response-omission fault. *)

val crash : Cluster.t -> node:int -> unit
(** Crash ≈ omit everything and answer nothing (reported by JURY as
    response omissions, exactly as §III-B notes). *)

val make_byzantine : Cluster.t -> node:int -> unit
(** Install {!byzantine_actions} as the node's mutator. *)

val partition : Cluster.t -> node:int -> unit
(** Partition the node from the store fabric: it neither receives nor
    emits replication, so its view silently diverges while it keeps
    answering from stale state. Cleared by {!heal} or {!rejoin}. *)

val lock_cache : Cluster.t -> node:int -> cache:string -> unit
(** The ONOS "failed to obtain lock" fault. *)

val heal : Cluster.t -> node:int -> unit
(** Remove every lever from the node (mutator, delays, omissions, store
    partition, cache locks). *)

val rejoin : Jury.Deployment.t -> node:int -> unit
(** Crash-and-rejoin recovery: {!heal} the node, then
    {!Jury.Deployment.rejoin_node} — state transfer from a healthy
    peer, snapshot re-seed, view invalidation, cluster aliveness. The
    node resumes answering (as a secondary; mastership is not handed
    back). *)
