module Event = Jury_store.Event
module Values = Jury_controller.Values
module Of_match = Jury_openflow.Of_match
module Of_action = Jury_openflow.Of_action

type controller_sel = Any_controller | Controller_id of int
type trigger_sel = Any_trigger | Internal_only | External_only
type op_sel = Any_op | Op_is of Event.op
type destination_sel = Any_dest | Local_only | Remote_only

type entry_check =
  | Entry_any
  | Entry_glob of { key : Pattern.t; value : Pattern.t }
  | Flow_hierarchy_violation
  | Flow_drops_packets

type rule = {
  name : string;
  allow : bool;
  controller : controller_sel;
  trigger : trigger_sel;
  cache : string option;
  operation : op_sel;
  entry : entry_check;
  destination : destination_sel;
}

let rule ?(name = "policy") ?(allow = false) ?(controller = Any_controller)
    ?(trigger = Any_trigger) ?cache ?(operation = Any_op)
    ?(entry = Entry_any) ?(destination = Any_dest) () =
  { name;
    allow;
    controller;
    trigger;
    cache = Option.map Jury_store.Cache_names.normalize cache;
    operation;
    entry;
    destination }

type query = {
  q_controller : int;
  q_trigger : [ `Internal | `External ];
  q_cache : string;
  q_op : Event.op;
  q_key : string;
  q_value : string;
  q_destination : [ `Local | `Remote ];
}

let entry_matches check q =
  match check with
  | Entry_any -> true
  | Entry_glob { key; value } ->
      Pattern.matches key q.q_key && Pattern.matches value q.q_value
  | Flow_hierarchy_violation -> (
      match Values.Flow.parse q.q_value with
      | Some fm -> not (Of_match.hierarchy_ok fm.Jury_openflow.Of_message.fm_match)
      | None -> false)
  | Flow_drops_packets -> (
      match Values.Flow.parse q.q_value with
      | Some fm -> Of_action.is_drop fm.Jury_openflow.Of_message.actions
      | None -> false)

(* Everything but the cache-name selector. The engine dispatches on
   the (normalised) cache name before rule matching, so re-testing it
   per rule would both be redundant and reintroduce the case-
   sensitivity it just removed. *)
let rule_matches_sans_cache r q =
  (match r.controller with
  | Any_controller -> true
  | Controller_id id -> id = q.q_controller)
  && (match r.trigger with
     | Any_trigger -> true
     | Internal_only -> q.q_trigger = `Internal
     | External_only -> q.q_trigger = `External)
  && (match r.operation with Any_op -> true | Op_is op -> op = q.q_op)
  && (match r.destination with
     | Any_dest -> true
     | Local_only -> q.q_destination = `Local
     | Remote_only -> q.q_destination = `Remote)
  && entry_matches r.entry q

let pp_query fmt q =
  Format.fprintf fmt "query[ctrl=%d trig=%s cache=%s op=%s %s=%S dest=%s]"
    q.q_controller
    (match q.q_trigger with `Internal -> "internal" | `External -> "external")
    q.q_cache
    (Event.op_to_string q.q_op)
    q.q_key q.q_value
    (match q.q_destination with `Local -> "local" | `Remote -> "remote")

let pp_rule fmt r =
  Format.fprintf fmt "%s[%s ctrl=%s trig=%s cache=%s op=%s dest=%s entry=%s]"
    r.name
    (if r.allow then "allow" else "deny")
    (match r.controller with
    | Any_controller -> "*"
    | Controller_id id -> string_of_int id)
    (match r.trigger with
    | Any_trigger -> "*"
    | Internal_only -> "internal"
    | External_only -> "external")
    (Option.value r.cache ~default:"*")
    (match r.operation with
    | Any_op -> "*"
    | Op_is op -> Event.op_to_string op)
    (match r.destination with
    | Any_dest -> "*"
    | Local_only -> "local"
    | Remote_only -> "remote")
    (match r.entry with
    | Entry_any -> "*,*"
    | Entry_glob { key; value } ->
        Printf.sprintf "%s,%s" (Pattern.source key) (Pattern.source value)
    | Flow_hierarchy_violation -> "flow-hierarchy-violation"
    | Flow_drops_packets -> "flow-drops-packets")
