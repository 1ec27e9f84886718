(** OpenFlow 1.0 twelve-tuple match with wildcards.

    A field set to [None] is wildcarded. The OF 1.0 spec requires a
    {e hierarchy} among fields: network-layer fields are only meaningful
    when [dl_type] pins the network protocol, and transport-layer fields
    only when [nw_proto] pins TCP/UDP. Old switches silently discarded
    fields that violated this hierarchy — the root cause of the paper's
    "ODL incorrect FLOW_MOD" (T3) fault — so this module exposes the
    check explicitly and JURY ships a policy that enforces it. *)

type t = {
  in_port : Of_types.Port.t option;
  dl_src : Jury_packet.Addr.Mac.t option;
  dl_dst : Jury_packet.Addr.Mac.t option;
  dl_vlan : int option option;
      (** [Some None] matches untagged traffic; [Some (Some v)] matches
          VID [v]; [None] wildcards. *)
  dl_type : int option;
  nw_src : (Jury_packet.Addr.Ipv4.t * int) option;  (** prefix, bits *)
  nw_dst : (Jury_packet.Addr.Ipv4.t * int) option;
  nw_proto : int option;
  nw_tos : int option;
  tp_src : int option;
  tp_dst : int option;
}

val wildcard_all : t
(** Matches every packet. *)

val exact_of_frame : in_port:Of_types.Port.t -> Jury_packet.Frame.t -> t
(** The exact (no-wildcard) match a reactive controller builds from a
    PACKET_IN — the usual source-destination micro-flow rule. *)

val l2_pair : src:Jury_packet.Addr.Mac.t -> dst:Jury_packet.Addr.Mac.t -> t
(** Source-destination MAC rule, as installed by ONOS reactive
    forwarding. *)

val l2_dst : dst:Jury_packet.Addr.Mac.t -> t
(** Destination-only MAC rule, as installed by ODL's proactive host
    forwarding. *)

val matches : t -> in_port:Of_types.Port.t -> Jury_packet.Frame.t -> bool

val hierarchy_ok : t -> bool
(** [true] iff every set field is backed by its prerequisite fields
    (nw_* need [dl_type] = IPv4 or ARP; tp_* need [nw_proto] ∈
    {TCP, UDP}). *)

val strip_invalid_fields : t -> t
(** What a lenient OF 1.0 switch actually installs for a match that
    violates the hierarchy: the offending fields are silently
    wildcarded. Identity on matches where {!hierarchy_ok} holds. *)

val more_specific : t -> t -> bool
(** [more_specific a b] — every packet matched by [a] is matched by [b]
    (conservative: field-by-field subsumption). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends [to_string t], for callers that build a longer string
    around it. *)
