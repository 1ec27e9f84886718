(** OVS-mode trigger encapsulation (§VI-A).

    For ODL, the replicator OVS connects to the secondary controllers
    in OpenFlow mode, so every replicated packet arrives as a PACKET_IN.
    When the original trigger was itself a PACKET_IN, the secondary
    receives a {e doubly encapsulated} PACKET_IN and JURY must strip the
    outer layer before processing (Fig. 4i measures that cost). The
    inner message rides as an opaque ethertype-0x9999 frame body. *)

val ethertype : int
(** The synthetic ethertype (0x9999) carrying encapsulated triggers. *)

val encapsulate :
  Jury_openflow.Of_message.t -> Jury_openflow.Of_message.packet_in
(** Wrap a full control message as the payload of a synthetic
    PACKET_IN. *)

val decapsulate :
  Jury_openflow.Of_message.packet_in -> Jury_openflow.Of_message.t option
(** Recover the inner message; [None] if the PACKET_IN is not an
    encapsulation. *)

val overhead_bytes : int
(** Extra bytes the encapsulated copy of any message occupies on the
    wire compared to the original: 32, the outer OpenFlow header (8),
    the PACKET_IN fields (10) and the Ethernet header (14). *)
