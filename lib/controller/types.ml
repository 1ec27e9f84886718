open Jury_openflow

module Taint = struct
  type t = string

  let external_trigger ~primary ~serial =
    Printf.sprintf "ext:%d:%d" primary serial

  let internal_trigger ~origin ~seq = Printf.sprintf "int:%d:%d" origin seq

  let parse t =
    match String.split_on_char ':' t with
    | [ "ext"; p; s ] -> (
        match (int_of_string_opt p, int_of_string_opt s) with
        | Some p, Some s -> Some (`Ext (p, s))
        | _ -> None)
    | [ "int"; o; s ] -> (
        match (int_of_string_opt o, int_of_string_opt s) with
        | Some o, Some s -> Some (`Int (o, s))
        | _ -> None)
    | _ -> None

  let primary_of t =
    match parse t with Some (`Ext (p, _)) -> Some p | _ -> None

  let is_external t =
    match parse t with Some (`Ext _) -> true | _ -> false

  let to_string t = t
  let of_string s = match parse s with Some _ -> Some s | None -> None
  let equal = String.equal
  let compare = String.compare
  let pp = Format.pp_print_string
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

and internal_work = Emit_lldp | Proactive of action list

and action =
  | Cache_write of {
      cache : string;
      op : Jury_store.Event.op;
      key : string;
      value : string;
    }
  | Network_send of { dpid : Of_types.Dpid.t; payload : Of_message.payload }

let trigger_is_external = function
  | Packet_in _ | Port_status _ | Switch_join _ | Flow_removed _ | Rest _ ->
      true
  | Internal _ -> false

let trigger_name = function
  | Packet_in (_, pi) -> (
      match pi.frame.payload with
      | Jury_packet.Frame.Lldp _ -> "PACKET_IN/LLDP"
      | Jury_packet.Frame.Arp _ -> "PACKET_IN/ARP"
      | Jury_packet.Frame.Ipv4 _ -> "PACKET_IN/IP"
      | Jury_packet.Frame.Raw _ -> "PACKET_IN/RAW")
  | Port_status _ -> "PORT_STATUS"
  | Switch_join _ -> "SWITCH_JOIN"
  | Flow_removed _ -> "FLOW_REMOVED"
  | Rest (Install_flow _) -> "REST/INSTALL_FLOW"
  | Rest (Delete_flow _) -> "REST/DELETE_FLOW"
  | Rest (Query_flows _) -> "REST/QUERY_FLOWS"
  | Internal { app; _ } -> "INTERNAL/" ^ app

let pp_trigger fmt t =
  Format.pp_print_string fmt (trigger_name t);
  match t with
  | Packet_in (dpid, pi) ->
      Format.fprintf fmt "@%a:%a" Of_types.Dpid.pp dpid Of_types.Port.pp
        pi.in_port
  | Port_status (dpid, ps) ->
      Format.fprintf fmt "@%a:%a up=%b" Of_types.Dpid.pp dpid Of_types.Port.pp
        ps.ps_port ps.ps_link_up
  | Switch_join (dpid, _) | Flow_removed (dpid, _) ->
      Format.fprintf fmt "@%a" Of_types.Dpid.pp dpid
  | Rest _ | Internal _ -> ()

let pp_action fmt = function
  | Cache_write { cache; op; key; value } ->
      Format.fprintf fmt "C:%s/%s %s=%S" cache
        (Jury_store.Event.op_to_string op)
        key value
  | Network_send { dpid; payload } ->
      Format.fprintf fmt "N:%a %s" Of_types.Dpid.pp dpid
        (Of_message.type_name payload)

let action_fingerprint = function
  | Cache_write { cache; op; key; value } ->
      String.concat "|"
        [ "C"; cache; Jury_store.Event.op_to_string op; key; value ]
  | Network_send { dpid; payload } ->
      let wire = Of_wire.encode (Of_message.make ~xid:0 payload) in
      String.concat "|"
        [ "N"; Of_types.Dpid.to_string dpid;
          Digest.to_hex (Digest.string wire) ]
