(** Instantiated data plane: switches and hosts wired per a
    {!Jury_topo.Builder.plan}, with a 50 µs propagation latency on
    every link.

    Control-plane wiring (switch → controller) is left to the cluster /
    JURY layers: each switch's control transmitter starts as a no-op
    until someone claims it via {!Switch.set_control_tx}. *)

open Jury_openflow

type t

val create :
  Jury_sim.Engine.t -> Jury_topo.Builder.plan ->
  ?lenient_tables:bool -> unit -> t

val engine : t -> Jury_sim.Engine.t
val plan : t -> Jury_topo.Builder.plan
val switches : t -> Switch.t list
val hosts : t -> Host.t list
val switch : t -> Of_types.Dpid.t -> Switch.t
(** Raises [Not_found]. *)

val host : t -> int -> Host.t
(** By host index; raises [Not_found]. *)

val host_location : t -> int -> Of_types.Dpid.t * int
(** The (switch, port) a host hangs off. *)

val take_link_down : t -> Jury_topo.Graph.endpoint -> Jury_topo.Graph.endpoint -> unit
(** Tear down an inter-switch link: both endpoints emit PORT_STATUS and
    stop carrying frames — the paper's "link tear down" trigger. *)

val bring_link_up : t -> Jury_topo.Graph.endpoint -> Jury_topo.Graph.endpoint -> unit

val data_plane_bytes : t -> int
(** Cumulative bytes carried on host and switch links. *)
