(** Periodic counter sampling: turns the switches' cumulative PACKET_IN
    / FLOW_MOD / PACKET_OUT counters into the rate-over-time and
    rate-vs-rate series the throughput figures plot. *)

type t

val start :
  Jury_net.Network.t -> ?window_sec:float -> duration:Jury_sim.Time.t ->
  unit -> t
(** Sample all switches every [window_sec] (default 0.5 s) for
    [duration]. *)

val packet_in : t -> Jury_stats.Rate.t
val flow_mod : t -> Jury_stats.Rate.t
val packet_out : t -> Jury_stats.Rate.t

val total_packet_in : t -> int
val total_flow_mod : t -> int

val mean_flow_mod_rate : t -> float
(** Events per second over the sampled span. *)
