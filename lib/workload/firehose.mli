(** Firehose trigger streams: capture-level flow arrivals at data-centre
    rates over a virtual host space in the millions, with heavy-tailed
    interarrival gaps layered on the {!Traces} profiles' burstiness.

    This workload deliberately bypasses the simulated network — it
    denotes what capture would emit, not how packets got there — so it
    can push a validator's ingest path orders of magnitude harder than
    host-by-host injection. Draw events with {!next} and feed them to a
    validator yourself ([Jury_experiments.Firehose_bench] does exactly
    that); arrival times are strictly increasing. *)

type profile = {
  name : string;            (** label, e.g. ["enterprise"] *)   
  base : Traces.profile;    (** trace whose burstiness shapes the body *)
  hosts : int;              (** virtual host space (ids [0 .. hosts-1]) *)
  rate : float;             (** aggregate trigger arrivals per simulated second *)
  tail_alpha : float;       (** Pareto shape of the heavy tail, > 1 *)
  tail_weight : float;      (** fraction of gaps drawn from the tail *)
  tail_mean_ratio : float;  (** tail mean gap / body mean gap *)
  locality : float;         (** host-popularity skew; higher = fewer hot hosts *)
}

val enterprise : profile
(** Layered on {!Traces.lbnl}: 2M hosts, 50K triggers/s. *)

type event = {
  at : Jury_sim.Time.t;  (** absolute simulated arrival instant *)
  src : int;             (** virtual source host *)
  dst : int;             (** virtual destination host, [<> src] *)
  flow_key : string;     (** canonical flow identifier ["fw/src>dst"] *)
}

val flow_key : int -> int -> string
(** [flow_key src dst] is [Printf.sprintf "fw/%x>%x" src dst], written
    without [Printf]: the [flow_key] of an arrival. *)

type stream
(** A stateful arrival generator; deterministic given its [rng]. *)

val stream : rng:Jury_sim.Rng.t -> ?start:Jury_sim.Time.t -> profile -> stream
(** A stream whose first arrival falls after [start] (default
    {!Jury_sim.Time.zero}). Raises [Invalid_argument] on a
    non-positive rate or a host space below 2. *)

val next : stream -> event
(** The next arrival; advances the stream. Total — streams are
    unbounded, the caller decides when to stop pulling. *)
