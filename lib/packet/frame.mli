(** Ethernet frames and their payloads.

    This is the data-plane packet model: everything a simulated host
    emits, a switch matches, and a controller inspects inside a
    PACKET_IN. Frames round-trip through a binary wire codec so that
    the PACKET_IN path carries real bytes, exactly like a live
    deployment (and like the doubly-encapsulated PACKET_INs JURY must
    strip for ODL). *)

type arp_op = Request | Reply

type arp = {
  op : arp_op;
  sha : Addr.Mac.t;   (** sender hardware address *)
  spa : Addr.Ipv4.t;  (** sender protocol address *)
  tha : Addr.Mac.t;
  tpa : Addr.Ipv4.t;
}

type tcp = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : int;  (** low 8 bits: FIN=1 SYN=2 RST=4 PSH=8 ACK=16 *)
  window : int;
  payload_len : int;  (** simulated payload size in bytes (not carried) *)
}

type udp = { src_port : int; dst_port : int; payload_len : int }
type icmp = { ty : int; code : int }

type l4 = Tcp of tcp | Udp of udp | Icmp of icmp | Other_l4 of int * string

type ipv4 = {
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
  proto : int;
  ttl : int;
  dscp : int;
  l4 : l4;
}

type payload =
  | Arp of arp
  | Ipv4 of ipv4
  | Lldp of Lldp.t
  | Raw of int * string  (** unparsed ethertype + body *)

type t = {
  dl_src : Addr.Mac.t;
  dl_dst : Addr.Mac.t;
  vlan : int option;  (** 802.1Q VID if tagged *)
  payload : payload;
}

val ethertype : t -> int
(** The (inner, post-VLAN) ethertype implied by the payload. *)

val tcp_syn : int
val tcp_ack : int
val tcp_fin : int
val tcp_rst : int

(** {1 Constructors} *)

val arp_request : sender:Addr.Mac.t * Addr.Ipv4.t -> target:Addr.Ipv4.t -> t
val arp_reply :
  sender:Addr.Mac.t * Addr.Ipv4.t -> target:Addr.Mac.t * Addr.Ipv4.t -> t

val tcp_packet :
  ?flags:int -> ?payload_len:int ->
  src:Addr.Mac.t * Addr.Ipv4.t -> dst:Addr.Mac.t * Addr.Ipv4.t ->
  src_port:int -> dst_port:int -> unit -> t

val udp_packet :
  ?payload_len:int ->
  src:Addr.Mac.t * Addr.Ipv4.t -> dst:Addr.Mac.t * Addr.Ipv4.t ->
  src_port:int -> dst_port:int -> unit -> t

val lldp_frame : src:Addr.Mac.t -> Lldp.t -> t

(** {1 Wire codec} *)

val encode : t -> string
val decode : string -> t
(** Raises {!Wire_buf.Truncated} or [Invalid_argument] on garbage. *)

val encoded_length : t -> int
(** [String.length (encode t)], counted from the frame's fields
    without encoding it. *)

val size_on_wire : t -> int
(** Encoded header size plus simulated payload length — the number used
    for bandwidth accounting. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
