(** Triggers and actions — the vocabulary shared by the controllers and
    JURY.

    A {e trigger} is anything that makes a controller act (§II-A.2 of
    the paper): southbound OpenFlow messages and northbound REST calls
    are {e external}; administrator logins, periodic application work
    and other in-controller events are {e internal}. A controller's
    response to a trigger is a list of {!action}s: cache writes and/or
    network sends — the C/N/CN side-effect classes of §II-A.3. *)

open Jury_openflow

(** Identifies a trigger end-to-end. External triggers are tainted by
    JURY's replicator before they reach any controller; internal
    triggers are identified after the fact from their first cache
    event. *)
module Taint : sig
  type t = private string

  val external_trigger : primary:int -> serial:int -> t
  (** Minted by the replicator: identifies the trigger and the primary
      controller that received it (§IV-A). *)

  val internal_trigger : origin:int -> seq:int -> t
  (** Synthesised by the validator for proactive actions, keyed by the
      first cache event's (origin, sequence). *)

  val primary_of : t -> int option
  (** The primary controller id for an external taint, [None] for
      internal. *)

  val is_external : t -> bool
  val to_string : t -> string
  val of_string : string -> t option
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

type rest_request =
  | Install_flow of { dpid : Of_types.Dpid.t; flow : Of_message.flow_mod }
  | Delete_flow of { dpid : Of_types.Dpid.t; fm_match : Of_match.t }
  | Query_flows of Of_types.Dpid.t

type trigger =
  | Packet_in of Of_types.Dpid.t * Of_message.packet_in
  | Port_status of Of_types.Dpid.t * Of_message.port_status
  | Switch_join of Of_types.Dpid.t * Of_message.features_reply
  | Flow_removed of Of_types.Dpid.t * Of_message.flow_removed
  | Rest of rest_request
  | Internal of { app : string; work : internal_work }

and internal_work =
  | Emit_lldp
      (** periodic topology probe on every mastered switch port *)
  | Proactive of action list
      (** an application's own pre-planned actions *)

and action =
  | Cache_write of {
      cache : string;
      op : Jury_store.Event.op;
      key : string;
      value : string;
    }
  | Network_send of { dpid : Of_types.Dpid.t; payload : Of_message.payload }

val trigger_name : trigger -> string

val action_fingerprint : action -> string
(** Canonical string for consensus comparison: two replicas took "the
    same action" iff the fingerprints are equal. Network payload
    fingerprints go through the wire codec with the xid zeroed, so
    per-controller xid counters don't break consensus. *)

