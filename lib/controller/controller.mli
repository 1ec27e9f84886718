(** A single controller replica.

    The replica embodies the control logic both ONOS and ODL share in
    the paper's model: topology discovery via LLDP, host tracking via
    ARP, reactive (or proactive, per {!Profile.forwarding_style})
    forwarding, northbound flow installation — with every response
    expressed as a list of {!Types.action}s (cache writes and network
    sends), so that:

    - the {e plan} step ({!plan}) is read-only and replayable: JURY's
      replicated execution at secondary controllers is exactly a call
      to [plan] whose results are captured instead of applied;
    - the {e apply} step threads the trigger's taint into every cache
      event and network message, giving action attribution;
    - fault injectors mutate the planned actions (or the apply step)
      without touching the planning logic, mirroring "bugs in the
      controller" rather than bugs in the model.

    Processing runs through the {!Pipeline} so that latency and
    throughput behave like the measured controllers. *)

open Jury_openflow

type t

type observer = {
  on_response : Types.Taint.t option -> Types.trigger -> Types.action list -> unit;
      (** fired once per processed trigger with the final (possibly
          fault-mutated) action list, before application *)
  on_applied : Types.Taint.t option -> Types.action -> unit;
      (** fired for every externalised side effect (after cache write
          success / network transmission) *)
  on_write_failed : Types.Taint.t option -> Types.action -> string -> unit;
      (** a cache write failed (e.g. "failed to obtain lock") *)
}

val null_observer : observer

(** A cluster's topology views: the one each replica holds. A replica
    that rebuilds its view ({!view}) adopts a view another replica holds
    when their content is equal: the switches SWITCHDB lists, each with
    its port list, and LINKSDB's up links, in table order. So replicas
    whose tables agree share one view and every memo it keeps. *)
module Views : sig
  type t

  val create : unit -> t

  val words : t -> int
  (** Heap words reachable from the distinct views the replicas hold,
      each view counted once. *)
end

val create :
  Jury_sim.Engine.t -> id:int -> profile:Profile.t ->
  fabric:Jury_store.Fabric.t -> flow_memo:Values.Flow.Memo.t ->
  views:Views.t -> t
(** [flow_memo] renders this replica's FLOWSDB keys and values, and
    [views] holds its topology view; every controller of one cluster
    gets the same memo and the same views. *)

val id : t -> int
val profile : t -> Profile.t
val engine : t -> Jury_sim.Engine.t
val fabric : t -> Jury_store.Fabric.t
val pipeline : t -> Pipeline.t

val set_switch_tx : t -> (Of_types.Dpid.t -> Of_message.t -> unit) -> unit
(** How this replica reaches switches it masters (set by the cluster;
    includes control-channel latency). *)

val set_observer : t -> observer -> unit
val master_of : t -> Of_types.Dpid.t -> int option
(** Mastership lookup through MASTERDB. *)

val masters : t -> Of_types.Dpid.t -> bool

(** {1 Trigger entry points} *)

val submit : t -> ?taint:Types.Taint.t -> Types.trigger -> unit
(** Queue an external trigger through the processing pipeline. *)

val run_internal : t -> app:string -> Types.internal_work -> unit
(** Run an internal trigger (administrator action, proactive app). *)

val plan : t -> Types.trigger -> Types.action list
(** Read-only planning: what would this replica do right now? A plan
    is a function of the trigger, the controller it is planned as, the
    cluster's profile and the answers of the reads it makes of this
    replica's state: point reads of the store, the host table, and the
    first hops, link ports and flood actions of its topology view, each
    of which is a function of the view's content. Only a plan that
    reads a whole table or draws from the RNG (ECMP) depends on
    more. *)

val plan_as : t -> as_id:int -> Types.trigger -> Types.action list
(** Plan from the perspective of controller [as_id]: replicated
    execution must replay the {e primary's} control sequence, so
    id-dependent logic (e.g. the link-liveness election) evaluates as
    the primary would, on this replica's state. *)

(** One plan per trigger: a deployment's table of recorded plans,
    direct-mapped on the taint's hash. A slot holds the last plan
    recorded for one external taint, with its trigger, its [as_id] and,
    in order, every read it made and the answer it got. *)
module Plans : sig
  type t

  val slots : int
  (** 64: slot [Taint.hash taint land (slots - 1)]. *)

  val create : unit -> t

  val lookups : t -> int
  (** Executions of external taints looked up so far. *)

  val claims : t -> int
  (** Lookups that found their slot holding another taint, or none. *)

  val reused : t -> int
  (** Lookups answered with the slot's plan. *)
end

val set_plans : t -> Plans.t -> unit
(** The table {!shadow_execute} looks external taints up in; every
    controller of one deployment gets the same one. *)

val shadow_execute :
  t -> as_id:int -> taint:Types.Taint.t -> Types.trigger -> Types.action list
(** {!plan_as} with this replica's fault mutator applied — JURY's
    replicated execution: a faulty replica is faulty in replicated
    execution too, but nothing is written or sent. The primary's own
    execution is [shadow_execute t ~as_id:(id t)].

    An external [taint] is looked up in the {!set_plans} table first.
    When the slot holds [taint], [as_id] and the same trigger, each
    point store and host-table read the recorded plan made gets the
    same answer on this replica now, and this replica holds the very
    view the plan read off (one pointer comparison, as replicas with
    equal view content share one view), the recorded list is the
    answer, and the lookup allocates nothing. Otherwise the replica
    plans and records its own plan in the slot, noting its reads; a
    plan that read a whole table or drew from the RNG is not kept, and
    later executions of its taint plan directly. Either way the answer
    is [=] to [plan_as t ~as_id trigger] on this replica at this
    instant, and the mutator runs on it afterwards, per replica. *)

type fate = private int
(** A response's fate: the nanoseconds until it is delivered, or a
    negative value when it is omitted. An immediate, so drawing one
    allocates nothing. *)

val sample_response_fate : t -> fate
(** Draw the fate of one response from this replica: delivered after
    the sampled latency (response-delay faults included), or omitted
    (response-omission faults). *)

val omitted : fate -> bool

val fate_latency : fate -> Jury_sim.Time.t
(** The latency of a delivered response; raises [Invalid_argument] on
    an omitted one. *)

val start_discovery : t -> unit
(** Begin periodic LLDP emission on mastered switches. *)

(** {1 Fault hooks} *)

val set_mutator :
  t -> (Types.trigger -> Types.action list -> Types.action list) option -> unit
(** Transforms planned actions before application — the generic T1/T2
    fault lever. [None] restores correct behaviour. *)

val set_response_delay : t -> Jury_sim.Time.t -> unit
(** Extra latency added to every response (slow / timing-faulty
    replica). *)

val set_omit_probability : t -> float -> unit
(** Probability of silently dropping a whole response (response
    omission). *)

val omit_probability : t -> float
(** Current response-omission probability. A replica at [>= 1.0] is
    deterministically silent — the liveness signal the election
    protocol's failure detector reads ({!Cluster.enable_election})
    without touching any RNG stream. *)

val invalidate_view : t -> unit
(** Mark the cached topology view and the decoded host table dirty so
    the next read rebuilds them from the replica's cache tables —
    required after an out-of-band state transfer
    ({!Jury_store.Fabric.resync}) that bypasses the listener path
    ordinarily keeping both fresh. *)

(** {1 Topology view}

    The replica's graph of switches and live links, read from SWITCHDB
    and LINKSDB on the first read after either changes or after
    {!invalidate_view}. When another replica of the cluster holds a
    view of equal content ({!Views}), this replica adopts it. The
    routes and flood sets below are computed once per view, by
    whichever replica reads them first, and serve every replica that
    holds the view. *)

val view : t -> Jury_topo.Graph.t

val link_ports : t -> Of_types.Dpid.t -> int list
(** The ports of a switch that carry a link in {!view}. *)

val first_hop : t -> Of_types.Dpid.t -> Of_types.Dpid.t -> int
(** [first_hop t src dst]: {!Jury_topo.Graph.first_hop} on {!view}'s
    tree rooted at [src] — the out port of the shortest path's first
    hop, [0] when [src = dst], [-1] when no path exists. *)

val next_hop_choices :
  t -> Of_types.Dpid.t -> Of_types.Dpid.t -> (int * Of_types.Dpid.t) list
(** [next_hop_choices t src dst]: {!Jury_topo.Graph.next_hops} from
    [src] on {!view}'s tree rooted at [dst]. *)

val flood_ports : t -> Of_types.Dpid.t -> in_port:int -> int list
(** Where a flood out of this switch goes, sorted: its ports on the
    spanning tree rooted at the lowest dpid, plus its host ports (those
    SWITCHDB listed when the view was read that carry no link), minus
    [in_port]. *)

val flood_actions : t -> Of_types.Dpid.t -> in_port:int -> Of_action.t list
(** [List.map (fun p -> Output p) (flood_ports t dpid ~in_port)], built
    once per (switch, ingress port) and view. *)

val response_latency_sample : t -> Jury_sim.Time.t
(** One sample of this replica's response latency towards the
    validator: channel base + load-scaled processing jitter. *)

val liveness_master_for_link :
  t -> Of_types.Dpid.t -> Of_types.Dpid.t -> int option
(** The replica that tracks liveness of a link: the higher-id master of
    the two endpoint switches (the ONOS election rule from §III-B). *)
