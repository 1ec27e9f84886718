(** Basic OpenFlow identifiers (OpenFlow 1.0 flavour). *)

module Dpid : sig
  type t = private int64
  (** Datapath identifier of a switch. *)

  val of_int : int -> t
  val of_int64 : int64 -> t
  val to_int64 : t -> int64
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Port : sig
  type t = int
  (** Physical ports are 1-based small integers; the OpenFlow virtual
      ports are the reserved values below. *)

  val controller : t
  (** 0xfffd — send to controller *)

  val flood : t
  (** 0xfffb — all ports except ingress *)

  val all : t
  (** 0xfffc — all ports including ingress *)

  val local : t
  (** 0xfffe *)

  val none : t
  (** 0xffff *)

  val in_port : t
  (** 0xfff8 — send back out the ingress port *)

  val is_physical : t -> bool

  val to_string : t -> string
  (** The virtual ports by name (["CONTROLLER"], ["FLOOD"], ...), any
      other port as its number. *)

  val pp : Format.formatter -> t -> unit
end

type xid = int
(** OpenFlow transaction id. *)

type buffer_id = int option
(** Switch-side buffer holding a packet awaiting a verdict; [None] means
    the full packet rode inside the PACKET_IN. *)

type cookie = int64
(** Opaque controller-chosen flow identifier. *)
