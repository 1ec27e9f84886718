(** A simulated OpenFlow switch.

    The switch owns a {!Jury_openflow.Flow_table.t}, a PACKET_IN buffer
    pool and two callbacks injected by the surrounding network: a frame
    forwarder (data-plane egress) and a control transmitter (OpenFlow
    egress towards its controller, possibly through a replicator).

    Received frames are matched against the flow table; a miss raises a
    PACKET_IN with the frame both buffered and carried inline (the
    common OF 1.0 deployment choice). Control messages received from
    the controller are executed with OF 1.0 semantics. *)

open Jury_openflow

type t

val create :
  Jury_sim.Engine.t -> Of_types.Dpid.t -> ?lenient_table:bool -> unit -> t
(** A switch with 256 packet buffers; a PACKET_IN raised while every
    one holds a frame carries no buffer id. *)

val dpid : t -> Of_types.Dpid.t
val table : t -> Flow_table.t

val register_port : t -> int -> unit
(** Declare a physical port (host- or switch-facing). *)

val ports : t -> int list

val set_forwarder : t -> (port:int -> Jury_packet.Frame.t -> unit) -> unit
(** Data-plane egress: called once per concrete output port. *)

val set_control_tx : t -> (Of_message.t -> unit) -> unit
(** Control-plane egress towards the governing controller. *)

val receive_frame : t -> in_port:int -> Jury_packet.Frame.t -> unit
(** Data-plane ingress. *)

val set_tap :
  t -> ([ `Rx | `Tx ] -> int -> Jury_packet.Frame.t -> unit) option -> unit
(** Observe every frame entering ([`Rx], with its ingress port) or
    leaving ([`Tx], per egress port) the switch — the hook
    {!Capture} uses. [None] removes the tap. *)

val handle_control : t -> Of_message.t -> unit
(** Control-plane ingress (a message from the controller). Replies
    (FEATURES_REPLY, ECHO_REPLY, BARRIER_REPLY, STATS_REPLY,
    FLOW_REMOVED) go out via the control transmitter. *)

val port_down : t -> int -> unit
(** Simulate link loss on a port: emits PORT_STATUS to the controller
    and stops forwarding out of that port. *)

val port_up : t -> int -> unit

val announce : t -> unit
(** Send HELLO + unsolicited FEATURES_REPLY, as on (re)connection. *)

(** {1 Counters} *)

val packet_in_count : t -> int
val flow_mod_count : t -> int
val packet_out_count : t -> int
val dropped_count : t -> int
(** Frames dropped by an explicit drop rule or a down port. *)
