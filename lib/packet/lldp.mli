(** LLDP (802.1AB) frames as used for SDN topology discovery.

    Controllers flood LLDP out of every switch port; receiving a frame
    on another switch reveals a link. Only the three mandatory TLVs plus
    an optional system-name TLV are modelled, which matches what
    ONOS/ODL discovery actually inspects. *)

type t = {
  chassis_id : int64;   (** datapath id of the emitting switch *)
  port_id : int;        (** emitting port number *)
  ttl : int;            (** seconds *)
  system_name : string option;  (** emitting controller's identity *)
}

val make : ?system_name:string -> chassis_id:int64 -> port_id:int -> ttl:int
  -> unit -> t

val encode : t -> string
(** TLV wire encoding (chassis id subtype 7 "locally assigned", port id
    subtype 7, TTL, optional system name, end-of-LLDPDU). *)

val encoded_length : t -> int
(** [String.length (encode t)], without encoding. *)

val decode : string -> t
(** Raises {!Wire_buf.Truncated} or [Invalid_argument] on malformed
    input. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
