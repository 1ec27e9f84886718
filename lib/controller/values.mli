(** Canonical cache keys and values.

    Every controller in the cluster serialises state identically so
    that replicated executions fingerprint equal and JURY's validator
    (and the policy engine) can decode entries back into structure. *)

open Jury_openflow
module Addr = Jury_packet.Addr

(** HOSTDB: key = MAC, value = attachment point + IP. *)
module Host : sig
  val key : Addr.Mac.t -> string
  val value : dpid:Of_types.Dpid.t -> port:int -> ip:Addr.Ipv4.t -> string
  val parse : string -> (Of_types.Dpid.t * int * Addr.Ipv4.t) option
end

(** ARPDB: key = IP, value = MAC, rendered as HOSTDB renders its key
    ({!Host.key}), so a learning controller renders a MAC once. *)
module Arp : sig
  val key : Addr.Ipv4.t -> string
  val parse : string -> Addr.Mac.t option
end

(** LINKSDB / EDGEDB: key = canonical endpoint pair, value = state. *)
module Link : sig
  val key :
    Of_types.Dpid.t * int -> Of_types.Dpid.t * int -> string
  (** Order-insensitive: both endpoint orders give the same key. *)

  val value_up : string
  val value_down : string

  val parse_key :
    string -> ((Of_types.Dpid.t * int) * (Of_types.Dpid.t * int)) option
  (** Reads back a {!key}; [None] unless the string holds exactly one
      ["--"] between two endpoints. *)

  val involves : string -> Of_types.Dpid.t -> int -> bool
  (** Does this link key touch the given switch port? *)
end

(** FLOWSDB: key = dpid + match digest, value = hex-encoded FLOW_MOD. *)
module Flow : sig
  val key : Of_types.Dpid.t -> Of_match.t -> priority:int -> string
  val value : Of_message.flow_mod -> string
  val parse : string -> Of_message.flow_mod option
  val dpid_of_key : string -> Of_types.Dpid.t option

  (** The last rendered keys and values, so that the k+1 replicas
      planning one trigger render each rule once. A hit returns the
      string {!key} or {!value} built for a structurally equal
      [(dpid, match, priority)] or FLOW_MOD. Holds at most 256 keys
      and 256 values; a full table is emptied before the next entry
      goes in. One memo belongs to one cluster: a process-wide table
      would carry entries from one deployment into the next and be
      shared across domains. *)
  module Memo : sig
    type t

    val create : unit -> t
    val key : t -> Of_types.Dpid.t -> Of_match.t -> priority:int -> string
    val value : t -> Of_message.flow_mod -> string

    val size : t -> int
    (** Keys plus values held. *)

    val lookups : t -> int
    val hits : t -> int
  end
end

(** SWITCHDB: key = dpid, value = connection state + master + ports. *)
module Switch : sig
  val key : Of_types.Dpid.t -> string
  val value_connected : master:int -> ports:int list -> string
  val parse : string -> (int * int list) option
  (** (master, ports) *)
end

(** MASTERDB: key = dpid, value = controller id. *)
module Master : sig
  val key : Of_types.Dpid.t -> string
  val value : int -> string
  val parse : string -> int option
end

val hex_encode : string -> string
val hex_decode : string -> string option

val parse_dpid_key : string -> Of_types.Dpid.t option
(** Parse a bare dpid key (as used by SWITCHDB / MASTERDB). *)
