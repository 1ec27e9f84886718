(** A simulated end host: a MAC/IP pair on a switch port with a small
    network stack (gratuitous ARP on join, ARP replies, frame
    transmission and receive bookkeeping). *)

type t

val create :
  Jury_sim.Engine.t -> index:int ->
  tx:(Jury_packet.Frame.t -> unit) -> t
(** [tx] delivers a frame to the attachment switch port. *)

val index : t -> int
val mac : t -> Jury_packet.Addr.Mac.t
val ip : t -> Jury_packet.Addr.Ipv4.t

val join : t -> unit
(** Announce presence with a gratuitous ARP — the paper's "host join"
    trigger. *)

val send_arp_request : t -> target:Jury_packet.Addr.Ipv4.t -> unit

val send_tcp :
  t -> dst_mac:Jury_packet.Addr.Mac.t -> dst_ip:Jury_packet.Addr.Ipv4.t ->
  ?flags:int -> ?payload_len:int -> src_port:int -> dst_port:int -> unit -> unit

val send_udp :
  t -> dst_mac:Jury_packet.Addr.Mac.t -> dst_ip:Jury_packet.Addr.Ipv4.t ->
  ?payload_len:int -> src_port:int -> dst_port:int -> unit -> unit

val receive : t -> Jury_packet.Frame.t -> unit
(** Frame delivery from the network. Replies to ARP requests for this
    host's IP; counts everything else. *)

val received_count : t -> int
