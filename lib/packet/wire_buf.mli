(** Big-endian binary readers and writers shared by the packet and
    OpenFlow codecs. *)

exception Truncated of string
(** Raised by readers when the buffer is too short; carries the name of
    the field being read. *)

module Writer : sig
  type t

  val create : unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u48 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val bytes : t -> string -> unit
  val zeros : t -> int -> unit
  val contents : t -> string

  val patch_u16 : t -> pos:int -> int -> unit
  (** Overwrite two bytes at [pos] — used for length/checksum fields
      known only after the body is written. O(1): it writes the two
      bytes in place and copies nothing. Raises [Invalid_argument] if
      [pos + 2] is past what has been written. *)
end

module Reader : sig
  type t

  val of_string : string -> t
  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> string -> int
  val u16 : t -> string -> int
  val u32 : t -> string -> int
  val u48 : t -> string -> int
  val u64 : t -> string -> int64
  val bytes : t -> int -> string -> string
  val skip : t -> int -> string -> unit
  val rest : t -> string
end

val internet_checksum : string -> int
(** RFC 1071 ones'-complement checksum of the given bytes (checksum
    field assumed zeroed by the caller). *)
