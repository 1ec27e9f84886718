(** A generated fuzz case: one complete, replayable JURY scenario.

    A case bundles everything one end-to-end run depends on — topology,
    cluster shape, workload, fault schedule, channel loss model and
    {!Jury.Jury_config} knobs — as a record of scalars. Two properties
    make the harness work:

    + {b Replayability}: {!generate} is a pure function of the seed, so
      any case (and thus any failure) is reproduced bit-identically
      from the single integer printed in the failure report.
    + {b Shrinkability}: every axis is an independent field, so
      {!Shrink} can minimise a failing case by moving one field at a
      time toward its smallest value and re-checking the oracle.

    Hand-written cases (the {e repro corpus} under [test/repros/]) use
    the same record type; {!to_ocaml} renders any case as an OCaml
    literal ready to append there. *)

type topo_kind =
  | Linear  (** the paper's Mininet chain *)
  | Ring
  | Star    (** one core, [switches] leaves *)
  | Single  (** one switch, [switches] hosts *)

type workload_kind =
  | Mix          (** {!Jury_workload.Flows.controlled_mix} *)
  | Connections  (** {!Jury_workload.Flows.new_connections} *)
  | Joins        (** {!Jury_workload.Flows.host_joins} *)
  | Blast        (** {!Jury_workload.Cbench.blast} at host 0's switch *)

(** One reversible fault lever applied to a replica mid-run, via
    {!Jury_faults.Injector}.

    The first seven constructors are the blind generator's vocabulary.
    The last five — crash-rejoin resync, Byzantine responses, a
    store-level partition, mid-run policy churn and mastership
    failover — are {e never} drawn blindly (the generator's draw
    sequence is pinned by replayability across releases); they enter a
    case only through {!Mutate}, so guided fuzzing explores them while
    blind-mode fingerprints stay byte-identical. *)
type fault_action =
  | Slow of { node : int; delay_ms : int }  (** timing fault *)
  | Lossy of { node : int; omit : float }   (** response omission *)
  | Crash of { node : int }
  | Drop_sends of { node : int }            (** lost FLOW_MODs (T2) *)
  | Blackhole of { node : int }             (** undesirable FLOW_MODs *)
  | Lock_cache of { node : int; cache : string }
  | Heal of { node : int }
  | Rejoin of { node : int }
      (** crash-and-rejoin: clear the node's levers and partition,
          resync its store from a healthy peer and resume responding *)
  | Byzantine of { node : int }
      (** plausible-but-wrong snapshots and actions from one replica *)
  | Partition of { node : int }
      (** store-level split: the node's writes stay local and peers'
          replication never reaches it (heal or rejoin reconnects) *)
  | Add_rule of { rule : string }
      (** policy churn: parse one {!Jury_policy.Parse} DSL line and
          [add_rule] it into the live engine while triggers are in
          flight (unparsable rules are ignored) *)
  | Fail_master of { node : int }
      (** crash plus an explicit HA failover
          ({!Jury_controller.Cluster.fail_over}): the node's switches
          move to the survivors mid-run (skipped when it is the last
          survivor) *)

type fault_event = { at_ms : int; action : fault_action }
(** [at_ms] is relative to the start of the workload window. *)

type t = {
  case_seed : int;       (** seeds the engine and every derived stream *)
  topo : topo_kind;
  switches : int;        (** switches (Linear/Ring), leaves (Star), hosts (Single) *)
  hosts_per_switch : int;
  nodes : int;           (** cluster size *)
  k : int;               (** replication factor, < [nodes] *)
  odl : bool;            (** ODL profile (encapsulation) vs ONOS *)
  workload : workload_kind;
  rate : float;          (** events per simulated second *)
  duration_ms : int;     (** workload window *)
  faults : fault_event list;
  drop : float;          (** channel loss probability *)
  duplicate : float;     (** channel duplication probability *)
  jitter_us : float;     (** channel reorder jitter (mean, µs) *)
  retries : int;         (** retransmission rounds; 0 = none *)
  degraded_quorum : int option;
  shards : int;          (** validator shard hint *)
  max_inflight : int option;
  batch_us : int option; (** response-ingestion batch window *)
  triggers : int;        (** synthetic stream length for the batching oracle *)
}

val generate : seed:int -> t
(** The case denoted by [seed] — deterministic, total, and independent
    of any ambient state. *)

val jury_config :
  ?shards:int -> ?batch_us:int option ->
  ?policies:Jury_policy.Engine.t ->
  ?deterministic:bool -> t ->
  Jury.Jury_config.t
(** The {!Jury.Jury_config.t} the case denotes. The optional arguments
    override single axes for the equivalence oracles: [shards] and
    [batch_us] replace the case's values; [deterministic] sets [deterministic_latencies] (the schedule
    explorer's jitter-free mode, see {!Jury.Jury_config.make}).
    [policies] supplies the (initially empty) live policy engine the
    [Add_rule] fault mutates mid-run; the default is an empty engine,
    identical to the historical behaviour. *)

val pp : Format.formatter -> t -> unit
(** One-line summary for failure reports. *)

val to_ocaml : ?indent:string -> t -> string
(** The case as an OCaml record literal (fields qualified with
    [Jury_check.Case.]), ready to paste into the repro corpus. *)

val equal : t -> t -> bool
(** Structural equality — cases contain no closures or cycles. *)

(** Per-axis read/update lenses — the one axis surface {!Shrink} and
    {!Mutate} share instead of duplicating record surgery.

    Every [set] clamps to the axis's validity floor (ring topologies
    keep ≥ 3 switches, [k] stays in [\[1, nodes-1\]], the degraded
    quorum within [k], fault node references inside the cluster, …),
    so lens updates map valid cases to valid cases. The one
    cross-axis constraint no single axis can repair — the workloads'
    host floor — stays the {!Lens.hosts_floor} predicate: Shrink drops
    candidates that violate it, Mutate rejects such mutants. *)
module Lens : sig
  type case = t

  type 'a axis = {
    name : string;           (** stable axis identifier *)
    get : case -> 'a;
    set : case -> 'a -> case;  (** clamped to the axis's validity floor *)
  }

  val min_switches : case -> int
  (** 3 on a ring, 1 otherwise. *)

  val min_hosts_per_switch : case -> int
  (** 2 under Blast, 1 otherwise. *)

  val hosts_floor : case -> bool
  (** The workloads' two-reachable-hosts floor (Joins needs one). *)

  val clamp_fault_nodes : nodes:int -> fault_event list -> fault_event list
  (** Every fault's node reference clamped into [\[0, nodes-1\]]. *)

  val topo : topo_kind axis
  val switches : int axis
  val hosts_per_switch : int axis
  val workload : workload_kind axis
  val nodes : int axis
  val k : int axis
  val odl : bool axis
  val rate : float axis
  val duration_ms : int axis
  val faults : fault_event list axis
  val drop : float axis
  val duplicate : float axis
  val jitter_us : float axis
  val retries : int axis
  val degraded_quorum : int option axis
  val shards : int axis
  val max_inflight : int option axis
  val batch_us : int option axis
  val triggers : int axis
end
