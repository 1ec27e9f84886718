(** Controller behaviour profiles.

    The controllers modelled here differ along exactly the axes
    captured in {!t}; everything else about the control logic is
    shared. Parameter values are calibrated so the bench harness lands
    near the paper's absolute numbers (see DESIGN.md for the
    calibration rationale):

    - ONOS v1.0.0: eventually-consistent Hazelcast store; ~200 µs
      PACKET_IN service (saturating ≈5 K FLOW_MOD/s per the whole
      pipeline, Fig. 4f); remote flow-backup application costs ≈220 µs
      of pipeline time per event, which is what makes a 7-node cluster
      only ≈8 % slower in aggregate than one node; reactive
      source–destination flow rules.
    - ODL Hydrogen: strongly-consistent Infinispan store; each flow
      write blocks for a coordination round that grows with cluster
      size (≈0.9 ms/node), collapsing clustered throughput exactly as
      Fig. 4g shows; destination-based proactive rules by default (the
      evaluation swaps in a reactive source–destination module, §VI-C,
      which is what [Reactive_src_dst] selects).
    - Ryu: single-threaded standalone event loop with {e no} clustered
      store (the deployed class the paper never evaluated, per the Ryu
      evaluation study in PAPERS.md). JURY validates it by replicating
      the action stream across independent instances — see
      [clustered] below and the "Controller profiles & leadership"
      section of DESIGN.md. *)

type forwarding_style =
  | Reactive_exact
      (** install an exact micro-flow rule per PACKET_IN — every new
          TCP connection misses the TCAM, which is what lets tcpreplay
          drive the PACKET_IN rates of §VII-B (ONOS v1.0.0 reactive
          forwarding, and the paper's custom ODL module) *)
  | Reactive_src_dst
      (** install a source-destination MAC pair rule per PACKET_IN *)
  | Proactive_dst
      (** install destination-only rules on host discovery (vanilla
          ODL) *)

type t = {
  name : string;  (** short stable identifier (["onos"], ["odl"], ["ryu"], …) *)
  consistency : Jury_store.Fabric.consistency;
      (** store fabric consistency model the profile deploys on *)
  store_profile : Jury_store.Fabric.latency_profile;
      (** latency parameters handed to {!Jury_store.Fabric.create} *)
  base_service : Jury_sim.Time.t;
      (** median pipeline service time per trigger (lognormal location) *)
  service_sigma : float;
      (** lognormal shape of the service time; [0.] collapses the
          distribution to its median and skips the RNG draw *)
  flow_writes_per_packet_in : int;
      (** strong-store writes the pipeline blocks on per reactive flow
          setup *)
  flow_backup_sync_per_node : Jury_sim.Time.t;
      (** eventually-consistent stores with synchronous flow-rule
          backup (ONOS/Hazelcast): each FLOWSDB write stalls the
          writer's pipeline by this much per {e other} replica — the
          cluster-wide ≈5 K FLOW_MOD/s ceiling of Fig. 4f *)
  remote_flow_apply : Jury_sim.Time.t;
      (** pipeline cost of applying a peer's replicated FLOWSDB event *)
  remote_other_apply : Jury_sim.Time.t;
      (** pipeline cost of applying a peer's replicated non-FLOWSDB
          event *)
  packet_out_service : Jury_sim.Time.t;
      (** marginal pipeline time to emit one PACKET_OUT *)
  response_latency_base : Jury_sim.Time.t;
      (** controller → validator / replicator channel latency *)
  response_jitter_median_us : float;
      (** median of the lognormal processing-jitter a response picks up
          inside the controller (GC, thread scheduling); scales with
          pipeline load *)
  response_jitter_sigma : float;
      (** lognormal shape of the response jitter; [0.] skips the draw *)
  lldp_period : Jury_sim.Time.t;
      (** link-discovery probe period per mastered switch *)
  lldp_jitter : Jury_sim.Time.t;
      (** uniform jitter on each LLDP re-arm; zero skips the (root-RNG)
          draw entirely *)
  flow_idle_timeout : int;  (** seconds, for reactive rules *)
  forwarding : forwarding_style;  (** rule-installation strategy *)
  ecmp : bool;
      (** pick uniformly among equal-cost next hops — a legitimately
          non-deterministic application (§IV-C B) *)
  decapsulation_cost_median_us : float;
      (** ODL-only: stripping the doubly-encapsulated PACKET_IN
          (Fig. 4i) *)
  clustered : bool;
      (** whether instances share a replicated store. [false] selects
          JURY's standalone validation mode: the fabric never
          replicates, every instance holds the same administratively
          provisioned MASTERDB, and the deployment mirrors each
          secondary's planned cache writes into that secondary's own
          local store (action-stream replication). Consensus then runs
          state-blind — standalone snapshots can never be equal across
          instances — and the cross-instance response vote carries the
          verdict. *)
}

val onos : t
val odl : t
(** ODL with the paper's custom reactive forwarding module (§VI-C). *)

val odl_vanilla : t
(** ODL with its native proactive destination-based forwarding. *)

val onos_ecmp : t
(** ONOS with randomised equal-cost multipath forwarding — used to
    exercise the validator's non-determinism rule. *)

val ryu : t
(** Ryu-style standalone controller: single-threaded event loop
    (high median service time, no backup-sync or coordination stalls),
    purely local store ([clustered = false]). Deploying this profile
    switches the whole JURY stack into standalone validation mode. *)

val deterministic : t -> t
(** The same deployment with every stochastic latency collapsed to its
    location parameter: zero service/response sigma, zero store
    replication jitter, zero LLDP jitter. None of the jitter RNGs are
    drawn at all, which the schedule explorer requires — with jitter
    on, tied events interfere through shared random streams and
    same-instant races almost never tie. Appends ["-det"] to the
    profile name. *)

val strong_sync_cost : t -> nodes:int -> Jury_sim.Time.t
(** Per-write pipeline stall under this profile for an [nodes]-replica
    cluster ([Time.zero] for eventually-consistent profiles). *)

val write_sync_cost :
  t -> nodes:int -> cache:Jury_store.Cache_names.t -> op:Jury_store.Event.op ->
  Jury_sim.Time.t
(** Pipeline stall a successful cache write costs the writer: the
    strong coordination round for strongly-consistent profiles (any
    cache), or the synchronous flow backup for eventually-consistent
    ones (FLOWSDB creates/updates only — deletes are fire-and-forget). *)
