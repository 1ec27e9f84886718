(** OpenFlow 1.0 actions. An empty action list means drop. *)

type t =
  | Output of Of_types.Port.t
  | Set_dl_src of Jury_packet.Addr.Mac.t
  | Set_dl_dst of Jury_packet.Addr.Mac.t
  | Set_nw_src of Jury_packet.Addr.Ipv4.t
  | Set_nw_dst of Jury_packet.Addr.Ipv4.t
  | Set_tp_src of int
  | Set_tp_dst of int
  | Set_vlan of int
  | Strip_vlan
  | Enqueue of Of_types.Port.t * int  (** port, queue id *)

val apply : t list -> Jury_packet.Frame.t -> Jury_packet.Frame.t * Of_types.Port.t list
(** [apply actions frame] rewrites the frame through the set-field
    actions in order and collects every output port. An empty port list
    means the packet is dropped. *)

val output_ports : t list -> Of_types.Port.t list
val is_drop : t list -> bool
val equal : t -> t -> bool
val equal_list : t list -> t list -> bool
val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit
