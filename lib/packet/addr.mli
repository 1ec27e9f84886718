(** Link- and network-layer addresses. *)

val set_hex_byte : Bytes.t -> int -> int -> unit
(** [set_hex_byte b pos v] writes the low byte of [v] as two lowercase
    hex digits at [pos] and [pos + 1] — ["%02x"] without Printf, for
    the address and flow-rule strings built on every trigger. *)

val add_decimal : Buffer.t -> int -> unit
(** [add_decimal b v] appends [v] in decimal — ["%d"] without Printf.
    Values outside [0, 99999] go through [string_of_int]. *)

module Mac : sig
  type t = private int
  (** 48-bit MAC address stored in the low bits of a native int. *)

  val of_int : int -> t
  (** Masks to 48 bits. *)

  val to_int : t -> int
  val broadcast : t
  val zero : t
  val is_broadcast : t -> bool
  val is_multicast : t -> bool

  val of_string : string -> t
  (** Parses ["aa:bb:cc:dd:ee:ff"]; raises [Invalid_argument] on
      malformed input. *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int

  val of_host_index : int -> t
  (** Deterministic lab addressing: host [i] gets [02:00:00:00:xx:xx]
      (locally administered). *)

  val lldp_nearest_bridge : t
  (** 01:80:c2:00:00:0e, the destination of LLDP frames. *)
end

module Ipv4 : sig
  type t = private int
  (** 32-bit IPv4 address. *)

  val of_int : int -> t
  val to_int : t -> int
  val of_string : string -> t
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val any : t
  val broadcast : t

  val of_host_index : int -> t
  (** Host [i] gets 10.0.x.y, matching Mininet's default scheme. *)

  val matches_prefix : t -> prefix:t -> bits:int -> bool
  (** [matches_prefix a ~prefix ~bits] — does [a] fall in
      [prefix/bits]? *)
end
