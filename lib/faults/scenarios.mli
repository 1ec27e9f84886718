(** The paper's fault catalog (§III-B, §VII-A1 and the appendix), as
    runnable scenarios.

    Each scenario arms a fault on one replica, provokes the triggering
    event, and declares which JURY alarm should fire. Every scenario
    runs over reliable replication and response-collection links.
    [Jury_experiments.Runner] drives a scenario end-to-end. *)

module Types = Jury_controller.Types
module Cluster = Jury_controller.Cluster

type context = {
  cluster : Cluster.t;
  network : Jury_net.Network.t;
  deployment : Jury.Deployment.t;
      (** the installed JURY deployment — recovery scenarios (rejoin's
          state transfer) and policy churn (the live rule engine) act
          through it *)
  faulty : int;          (** the replica carrying the fault *)
  rng : Jury_sim.Rng.t;
}

type t = {
  name : string;
  klass : [ `T1 | `T2 | `T3 ];
  description : string;
  profile : Jury_controller.Profile.t;  (** controller flavour it targets *)
  policy : string option;
      (** policy-DSL source JURY needs loaded to catch it (T3 faults) *)
  state_aware : bool;
      (** consensus mode for the deployment — [true] for every scenario
          except {!store_partition}, whose divergent-view dissent
          state-aware consensus excuses by design (§IV-C) *)
  needs_lenient_switches : bool;
  arm_before_start : bool;
      (** arm during bootstrap (e.g. the switch-connect lock fault) *)
  arm : context -> unit;
  provoke : context -> unit;
  settle : Jury_sim.Time.t;  (** how long after provoking to run *)
  election : Cluster.election_config option;
      (** when set, the deployment enables dynamic master election and
          failover re-attribution with this tuning (the [election]
          field of {!Jury.Deployment.config}); [None] — every
          pre-leadership catalog scenario — keeps static mastership *)
  expected : Jury.Alarm.fault;
      (** the fault the scenario must raise against the faulty replica *)
}

val all : t list
val find : string -> t option
val names : string list

val klass_name : t -> string
(** ["T1"], ["T2"] or ["T3"]. *)

(** {1 Individual scenarios} *)

val onos_database_locking : t
val onos_master_election : t
val odl_flowmod_drop : t
val odl_incorrect_flowmod : t
val link_failure : t
val undesirable_flowmod : t
val faulty_proactive : t
val flow_deletion_failure : t
val link_detection_inconsistent : t
val flow_instantiation_failure : t
val pending_add_stuck : t

val controller_crash : t
(** Fail-stop crash, reported by JURY as response omissions (§III-B's
    explicit caveat). *)

val controller_crash_rejoin : t
(** Crash, then recovery: {!Injector.rejoin} state-transfers the store
    view from a healthy peer and the replica resumes answering. *)

val byzantine_secondary : t
(** Plausible-but-wrong responses, outvoted by state-aware consensus. *)

val store_partition : t
(** The store fabric stops replicating one replica's writes; the
    missing peer cache acks surface as response timeouts. *)

val policy_churn : t
(** A policy rule is installed mid-flight ({!Jury_policy.Engine.add_rule});
    a violation arriving after the churn is caught by the recompiled
    rule set. *)

val master_failover : t
(** Master crash under dynamic leadership: the crash-window trigger
    times out (the detection) before the deliberately slow election
    declares the master dead; the cluster then fails over to term 2
    and later triggers validate under the new master. *)

val election_storm : t
(** Two leadership changes in one run (crash → re-attributed in-flight
    trigger → rejoin → crash) with a Byzantine replica active
    throughout — churn must not mask the consensus-mismatch
    conviction. *)

val ryu_standalone_hang : t
(** Standalone-mode validation: independent Ryu-style instances, no
    shared store, state-blind response voting; a hung instance is
    caught as a response timeout. *)

val jury_config :
  t ->
  ?k:int -> ?random_secondaries:bool ->
  ?shards:int -> ?max_inflight:int -> ?batch:Jury_sim.Time.t ->
  unit -> Jury.Jury_config.t
(** The {!Jury.Jury_config.t} a scenario calls for: its policy DSL
    compiled and encapsulation chosen from the controller profile.
    Defaults to the paper's worst case, k = 6. The remaining knobs pass
    straight through to {!Jury.Jury_config.make} (along with the
    scenario's [election] tuning). *)
