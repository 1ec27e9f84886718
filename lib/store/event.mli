(** Cache update events.

    Every topological or forwarding action a controller takes is
    externalised as one of these (the paper's observation that "all
    non-adversarial controller activities update the controller-wide
    caches"). Events carry their origin node — data distribution
    platforms authenticate cluster members, which JURY relies on for
    action attribution of internal triggers. *)

type op = Create | Update | Delete

type t = {
  cache : Cache_names.t;
  op : op;
  key : string;
  value : string;   (** serialised entry; "" for [Delete] *)
  origin : int;     (** node id that issued the write *)
  seq : int;        (** per-origin sequence number (TCP-ordered) *)
  taint : Taint.t option;
      (** JURY taint carried through the processing pipeline; [None]
          for untainted (internal-trigger) writes *)
}

val op_to_string : op -> string
val op_of_string : string -> op option
val wire_size : t -> int
(** Approximate bytes on the inter-node channel: serialised fields plus
    framing overhead — feeds the Mbps overhead experiment. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
val compare : t -> t -> int
