(** OpenFlow 1.0 twelve-tuple match with wildcards.

    A match is one flat record of immediate ints: the [present] bitmask
    says which fields are set, and a field whose bit is clear is
    wildcarded and held at 0, so two matches are {!equal} exactly when
    they are structurally equal. Build one with {!make} (or
    {!exact_of_frame}, {!l2_pair}, {!l2_dst}); no field value is
    truncated or range-checked. The OF 1.0 spec requires a
    {e hierarchy} among fields: network-layer fields are only meaningful
    when [dl_type] pins the network protocol, and transport-layer fields
    only when [nw_proto] pins TCP/UDP. Old switches silently discarded
    fields that violated this hierarchy — the root cause of the paper's
    "ODL incorrect FLOW_MOD" (T3) fault — so this module exposes the
    check explicitly and JURY ships a policy that enforces it. *)

type t = private {
  present : int;  (** Which fields are set: a union of {!Bit}s. *)
  in_port : Of_types.Port.t;
  dl_src : Jury_packet.Addr.Mac.t;
  dl_dst : Jury_packet.Addr.Mac.t;
  dl_vlan : int;
      (** The VID, when {!Bit.dl_vlan} is set without {!Bit.untagged};
          with both set the match is for untagged traffic and this is
          0. *)
  dl_type : int;
  nw_src : Jury_packet.Addr.Ipv4.t;  (** Prefix of [nw_src_bits] bits. *)
  nw_src_bits : int;
  nw_dst : Jury_packet.Addr.Ipv4.t;
  nw_dst_bits : int;
  nw_proto : int;
  nw_tos : int;
  tp_src : int;
  tp_dst : int;
}

(** The bits of [present]. Each single-field bit sits where OF 1.0's
    wildcards bitmap has that field's wildcard bit, so the wire's
    bitmap is the complement of [present] on {!Bit.wire_fields}; the
    nw prefixes, which the wire wildcards by mask length, and
    {!Bit.untagged} use bits OF 1.0 leaves unused. *)
module Bit : sig
  val in_port : int
  val dl_vlan : int
  val dl_src : int
  val dl_dst : int
  val dl_type : int
  val nw_proto : int
  val tp_src : int
  val tp_dst : int
  val nw_tos : int
  val nw_src : int
  val nw_dst : int

  val untagged : int
  (** Set only beside {!dl_vlan}: the match is for untagged frames. *)

  val wire_fields : int
  (** The single-field bits, [in_port] to [tp_dst] and [nw_tos]. *)
end

val make :
  ?in_port:Of_types.Port.t ->
  ?dl_src:Jury_packet.Addr.Mac.t ->
  ?dl_dst:Jury_packet.Addr.Mac.t ->
  ?dl_vlan:int option ->
  ?dl_type:int ->
  ?nw_src:Jury_packet.Addr.Ipv4.t * int ->
  ?nw_dst:Jury_packet.Addr.Ipv4.t * int ->
  ?nw_proto:int ->
  ?nw_tos:int ->
  ?tp_src:int ->
  ?tp_dst:int ->
  unit ->
  t
(** The match that sets exactly the given fields. [~dl_vlan:None]
    matches untagged traffic and [~dl_vlan:(Some v)] VID [v]; a prefix
    is [(address, bits)] with [bits] in 0..32, and any other length
    raises [Invalid_argument] (the OF 1.0 mask field would carry it as
    a different prefix). A [/0] prefix is kept as set, but it matches
    every address, and the wire encodes it as the wildcard: it decodes
    as a match without that field. *)

val of_fields :
  present:int ->
  in_port:Of_types.Port.t ->
  dl_src:Jury_packet.Addr.Mac.t ->
  dl_dst:Jury_packet.Addr.Mac.t ->
  dl_vlan:int ->
  dl_type:int ->
  nw_src:Jury_packet.Addr.Ipv4.t ->
  nw_src_bits:int ->
  nw_dst:Jury_packet.Addr.Ipv4.t ->
  nw_dst_bits:int ->
  nw_proto:int ->
  nw_tos:int ->
  tp_src:int ->
  tp_dst:int ->
  t
(** The record with these fields, each one whose bit [present] lacks
    (and [dl_vlan] under {!Bit.untagged}) held at 0, and
    {!Bit.untagged} dropped without {!Bit.dl_vlan}. For decoders, which
    read every field whatever the bitmask says. Raises
    [Invalid_argument] when a present prefix's length is outside
    0..32, as {!make} does. *)

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
