(** JURY's policy language (paper Table 2 / Fig. 3).

    A policy constrains controller actions on the shared caches. Each
    rule selects on controller id, trigger nature, cache + operation,
    entry contents and side-effect destination; an [allow = false] rule
    raises an alarm when it matches. *)

type controller_sel = Any_controller | Controller_id of int
type trigger_sel = Any_trigger | Internal_only | External_only
type op_sel = Any_op | Op_is of Jury_store.Event.op
type destination_sel = Any_dest | Local_only | Remote_only

(** What must hold of the cache entry for the rule to match. *)
type entry_check =
  | Entry_any                                  (** the Fig. 3 ["*,*"] *)
  | Entry_glob of { key : Pattern.t; value : Pattern.t }
  | Flow_hierarchy_violation
      (** decoded FLOWSDB entry whose match violates the OF 1.0 field
          hierarchy — the policy that guards against the "ODL incorrect
          FLOW_MOD" T3 fault *)
  | Flow_drops_packets
      (** decoded FLOWSDB entry whose action list is a drop — guards
          against the "undesirable FLOW_MOD" scenario *)

type rule = {
  name : string;
  allow : bool;
  controller : controller_sel;
  trigger : trigger_sel;
  cache : string option;  (** normalised cache name; [None] = any *)
  operation : op_sel;
  entry : entry_check;
  destination : destination_sel;
}

val rule :
  ?name:string -> ?allow:bool -> ?controller:controller_sel ->
  ?trigger:trigger_sel -> ?cache:string -> ?operation:op_sel ->
  ?entry:entry_check -> ?destination:destination_sel -> unit -> rule
(** Builder with permissive defaults (match everything, [allow =
    false]). *)

(** The action being checked, as the validator sees it. *)
type query = {
  q_controller : int;
  q_trigger : [ `Internal | `External ];
  q_cache : string;
  q_op : Jury_store.Event.op;
  q_key : string;
  q_value : string;
  q_destination : [ `Local | `Remote ];
}

val rule_matches_sans_cache : rule -> query -> bool
(** Every selector except the cache name — for callers ({!Engine},
    {!Compiled}) that have already dispatched on the normalised cache. *)

val entry_matches : entry_check -> query -> bool
(** Just the entry check against the query's key/value. *)

val pp_rule : Format.formatter -> rule -> unit
val pp_query : Format.formatter -> query -> unit
