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

val create :
  Jury_sim.Engine.t -> id:int -> profile:Profile.t ->
  fabric:Jury_store.Fabric.t -> t

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
(** Read-only planning: what would this replica do right now? *)

val plan_as : t -> as_id:int -> Types.trigger -> Types.action list
(** Plan from the perspective of controller [as_id]: replicated
    execution must replay the {e primary's} control sequence, so
    id-dependent logic (e.g. the link-liveness election) evaluates as
    the primary would, on this replica's state. *)

val shadow_execute : t -> ?as_id:int -> Types.trigger -> Types.action list
(** {!plan_as} with this replica's fault mutator applied — JURY's
    replicated execution: a faulty replica is faulty in replicated
    execution too, but nothing is written or sent. *)

val sample_response_fate : t -> [ `Respond of Jury_sim.Time.t | `Omit ]
(** Draw the fate of one response from this replica: delivered after
    the sampled latency (response-delay faults included), or omitted
    (response-omission faults). *)

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
(** Mark the cached topology view dirty so the next read rebuilds it
    from the replica's cache tables — required after an out-of-band
    state transfer ({!Jury_store.Fabric.resync}) that bypasses the
    listener path ordinarily keeping the view fresh. *)

(** {1 Topology view}

    The replica's graph of switches and live links, rebuilt from
    SWITCHDB and LINKSDB on the first read after either changes or
    after {!invalidate_view}. The routes below are computed once per
    view and reused until it is rebuilt. *)

val view : t -> Jury_topo.Graph.t

val shortest_path :
  t -> Of_types.Dpid.t -> Of_types.Dpid.t ->
  (Of_types.Dpid.t * int * int) list option
(** {!Jury_topo.Graph.shortest_path} on {!view}. *)

val next_hop_choices :
  t -> Of_types.Dpid.t -> Of_types.Dpid.t -> (int * Of_types.Dpid.t) list
(** [next_hop_choices t src dst]: {!Jury_topo.Graph.next_hops} from
    [src] on {!view}'s tree rooted at [dst]. *)

val flood_ports : t -> Of_types.Dpid.t -> in_port:int -> int list
(** Where a flood out of this switch goes, sorted: its ports on the
    spanning tree rooted at the lowest dpid, plus its host ports (those
    SWITCHDB lists that carry no link), minus [in_port]. *)

val response_latency_sample : t -> Jury_sim.Time.t
(** One sample of this replica's response latency towards the
    validator: channel base + load-scaled processing jitter. *)

val liveness_master_for_link :
  t -> Of_types.Dpid.t -> Of_types.Dpid.t -> int option
(** The replica that tracks liveness of a link: the higher-id master of
    the two endpoint switches (the ONOS election rule from §III-B). *)
