open Jury_openflow

module Taint = struct
  type t = string

  let external_trigger ~primary ~serial =
    Printf.sprintf "ext:%d:%d" primary serial

  let internal_trigger ~origin ~seq = Printf.sprintf "int:%d:%d" origin seq

  exception Malformed

  (* The digits of [t.[k..j)] onto [acc], read negatively so that
     [min_int] fits. *)
  let rec digits t j acc k =
    if k = j then acc
    else
      match t.[k] with
      | '0' .. '9' as c ->
          let d = Char.code c - Char.code '0' in
          let limit = min_int / 10 in
          if acc < limit || (acc = limit && d > (limit * 10) - min_int) then
            raise_notrace Malformed;
          digits t j ((acc * 10) - d) (k + 1)
      | _ -> raise_notrace Malformed

  (* [t.[i..j)] as [%d] prints an int: an optional '-', then decimal
     digits. *)
  let decimal t i j =
    let neg = i < j && t.[i] = '-' in
    let i = if neg then i + 1 else i in
    if i >= j then raise_notrace Malformed;
    let v = digits t j 0 i in
    if neg then v
    else if v = min_int then raise_notrace Malformed
    else -v

  (* Checks ["ext:P:S"] or ["int:O:S"] in place and returns the index of
     its second ':'. *)
  let second_colon t =
    if
      not
        (String.starts_with ~prefix:"ext:" t
        || String.starts_with ~prefix:"int:" t)
    then raise_notrace Malformed;
    let c =
      match String.index_from t 4 ':' with
      | c -> c
      | exception Not_found -> raise_notrace Malformed
    in
    ignore (decimal t 4 c : int);
    ignore (decimal t (c + 1) (String.length t) : int);
    c

  let primary_of t =
    match second_colon t with
    | c -> if t.[0] = 'e' then Some (decimal t 4 c) else None
    | exception Malformed -> None

  let is_external t =
    match second_colon t with
    | _ -> t.[0] = 'e'
    | exception Malformed -> false

  let to_string t = t

  let of_string s =
    match second_colon s with _ -> Some s | exception Malformed -> None
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

let action_fingerprint = function
  | Cache_write { cache; op; key; value } ->
      String.concat "|"
        [ "C"; cache; Jury_store.Event.op_to_string op; key; value ]
  | Network_send { dpid; payload } ->
      let wire = Of_wire.encode (Of_message.make ~xid:0 payload) in
      String.concat "|"
        [ "N"; Of_types.Dpid.to_string dpid;
          Digest.to_hex (Digest.string wire) ]
