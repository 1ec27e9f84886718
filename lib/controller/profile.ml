open Jury_sim

type forwarding_style = Reactive_exact | Reactive_src_dst | Proactive_dst

type t = {
  name : string;
  consistency : Jury_store.Fabric.consistency;
  store_profile : Jury_store.Fabric.latency_profile;
  base_service : Time.t;
  service_sigma : float;
  flow_writes_per_packet_in : int;
  flow_backup_sync_per_node : Time.t;
  remote_flow_apply : Time.t;
  remote_other_apply : Time.t;
  packet_out_service : Time.t;
  response_latency_base : Time.t;
  response_jitter_median_us : float;
  response_jitter_sigma : float;
  lldp_period : Time.t;
  lldp_jitter : Time.t;
  flow_idle_timeout : int;
  forwarding : forwarding_style;
  ecmp : bool;
  decapsulation_cost_median_us : float;
  clustered : bool;
}

let onos =
  { name = "onos";
    consistency = Jury_store.Fabric.Eventual;
    store_profile = Jury_store.Fabric.default_eventual_profile;
    base_service = Time.us 200;
    service_sigma = 0.3;
    flow_writes_per_packet_in = 1;
    flow_backup_sync_per_node = Time.us 215;
    remote_flow_apply = Time.us 10;
    remote_other_apply = Time.us 3;
    packet_out_service = Time.of_float_us 4.5;
    response_latency_base = Time.us 250;
    response_jitter_median_us = 6_000.;
    response_jitter_sigma = 1.0;
    lldp_period = Time.sec 3;
    lldp_jitter = Time.ms 200;
    flow_idle_timeout = 10;
    forwarding = Reactive_exact;
    ecmp = false;
    decapsulation_cost_median_us = 0.;
    clustered = true }

(* ONOS with an ECMP-style load-balancing forwarding app: equal-cost
   next hops are picked at random, so replicated executions legitimately
   diverge — the non-determinism the paper's consensus rule (SIV-C B)
   must tolerate. *)
let onos_ecmp = { onos with name = "onos-ecmp"; ecmp = true }

let odl_strong_profile =
  { Jury_store.Fabric.local_apply = Time.us 50;
    replication_base = Time.us 400;
    replication_jitter_us = 200.;
    strong_round_base = Time.zero;
    strong_round_per_node = Time.us 900 }

let odl =
  { name = "odl";
    consistency = Jury_store.Fabric.Strong;
    store_profile = odl_strong_profile;
    base_service = Time.us 350;
    service_sigma = 0.35;
    flow_writes_per_packet_in = 1;
    flow_backup_sync_per_node = Time.zero;
    remote_flow_apply = Time.zero;
    remote_other_apply = Time.zero;
    packet_out_service = Time.us 9;
    response_latency_base = Time.us 400;
    response_jitter_median_us = 35_000.;
    response_jitter_sigma = 0.9;
    lldp_period = Time.sec 3;
    lldp_jitter = Time.ms 200;
    flow_idle_timeout = 10;
    forwarding = Reactive_exact;
    ecmp = false;
    decapsulation_cost_median_us = 95.;
    clustered = true }

let odl_vanilla = { odl with name = "odl-vanilla"; forwarding = Proactive_dst }

(* Ryu: a single-threaded Python event loop with no clustered store at
   all. Each instance keeps a purely local view; nothing is replicated
   between instances by the controller itself, so JURY must validate it
   by replicating the *action stream* across standalone instances
   (Deployment runs the fabric in standalone mode and mirrors each
   secondary's planned cache writes into its own local store). The
   service time is higher than ONOS — one Python thread serialises the
   whole pipeline — but there is no flow-backup stall and no
   coordination round, so a single instance is simple and predictable. *)
let ryu =
  { name = "ryu";
    consistency = Jury_store.Fabric.Eventual;
    store_profile = Jury_store.Fabric.default_eventual_profile;
    base_service = Time.us 520;
    service_sigma = 0.45;
    flow_writes_per_packet_in = 1;
    flow_backup_sync_per_node = Time.zero;
    remote_flow_apply = Time.zero;
    remote_other_apply = Time.zero;
    packet_out_service = Time.us 12;
    response_latency_base = Time.us 180;
    response_jitter_median_us = 9_000.;
    response_jitter_sigma = 1.1;
    lldp_period = Time.sec 3;
    lldp_jitter = Time.ms 200;
    flow_idle_timeout = 10;
    forwarding = Reactive_exact;
    ecmp = false;
    decapsulation_cost_median_us = 0.;
    clustered = false }

(* Every stochastic latency collapsed to its location parameter. The
   run is still a faithful deployment — it just sits at the median of
   every distribution — and, crucially, none of the jitter RNGs are
   drawn at all, so equal-timestamp events no longer interfere through
   shared random streams. The schedule explorer (Jury_mc) requires
   this: with jitter on, two tied events that each draw from a shared
   stream never commute, and genuine same-instant races (replica
   fan-out, k-way response collection) almost never tie in the first
   place. *)
let deterministic t =
  { t with
    name = t.name ^ "-det";
    service_sigma = 0.;
    response_jitter_sigma = 0.;
    lldp_jitter = Time.zero;
    store_profile = { t.store_profile with replication_jitter_us = 0. } }

let strong_sync_cost t ~nodes =
  match t.consistency with
  | Jury_store.Fabric.Eventual -> Time.zero
  | Jury_store.Fabric.Strong ->
      Time.add t.store_profile.strong_round_base
        (Time.mul t.store_profile.strong_round_per_node nodes)

let write_sync_cost t ~nodes ~cache ~op =
  match t.consistency with
  | Jury_store.Fabric.Strong -> strong_sync_cost t ~nodes
  | Jury_store.Fabric.Eventual ->
      match (cache, op) with
      | Jury_store.Cache_names.Flowsdb,
        (Jury_store.Event.Create | Jury_store.Event.Update) ->
          Time.mul t.flow_backup_sync_per_node (max 0 (nodes - 1))
      | _ -> Time.zero
