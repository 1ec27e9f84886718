(** The controller's PACKET_IN → FLOW_MOD processing pipeline, modelled
    as a single FIFO server with stochastic service times.

    This is the component that produces every throughput shape in the
    paper's §VII-B: saturation when the offered PACKET_IN rate exceeds
    1/service-time (Fig. 4f/4g), queueing delay feeding detection-time
    tails (Fig. 4a–4c), and the Cbench collapse (Fig. 4e) via the
    overload model below.

    Overload model: a real ONOS under a Cbench blast accumulates
    backlog until TCP zero-window stalls and memory pressure make it
    stop emitting FLOW_MODs entirely. Here, when the backlog exceeds
    [overload_backlog] the server enters a degraded mode multiplying
    service times by 200 and dropping new arrivals; it
    recovers when the backlog drains below half the threshold. *)

type t

type config = {
  base_service : Jury_sim.Time.t;   (** median service time *)
  service_sigma : float;           (** lognormal shape of service time *)
  overload_backlog : Jury_sim.Time.t; (** backlog that trips overload *)
}

val config :
  ?service_sigma:float -> ?overload_backlog:Jury_sim.Time.t ->
  base_service:Jury_sim.Time.t -> unit -> config
(** Defaults: [service_sigma] 0.25, [overload_backlog] 1.5 s. *)

val create :
  ?footprint:Jury_sim.Footprint.t -> Jury_sim.Engine.t -> config -> t
(** [footprint] (default opaque) is attached to every job-completion
    event this server schedules: it should cover the server's own state
    plus whatever the jobs it runs may touch (for a controller pipeline,
    the controller and its store shard). *)

val submit : ?span:Jury_obs.Trace.span_id -> t -> (unit -> unit) -> unit
(** Enqueue a job; the thunk runs when the server completes it. Dropped
    silently (counted) while overloaded. When [span] names an open
    pipeline-service trace span, it is closed when the job completes
    (attrs record the queueing delay) or immediately on an overload
    drop (attr [dropped=overload]). *)

val add_load : t -> Jury_sim.Time.t -> unit
(** Consume server capacity without a completion callback — remote
    cache-event application, mastership chatter, etc. *)

val backlog : t -> Jury_sim.Time.t
(** Work currently queued ahead of a new arrival. *)

val overloaded : t -> bool
val completed : t -> int
val dropped : t -> int
