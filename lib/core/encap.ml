open Jury_openflow
module Frame = Jury_packet.Frame
module Addr = Jury_packet.Addr

let ethertype = 0x9999

let encapsulate (msg : Of_message.t) : Of_message.packet_in =
  let wire = Of_wire.encode msg in
  { buffer_id = None;
    in_port = Of_types.Port.local;
    reason = Of_message.No_match;
    frame =
      { dl_src = Addr.Mac.of_host_index 0xEEEE;
        dl_dst = Addr.Mac.of_host_index 0xEEEF;
        vlan = None;
        payload = Frame.Raw (ethertype, wire) } }

let decapsulate (pi : Of_message.packet_in) =
  match pi.frame.Frame.payload with
  | Frame.Raw (ty, wire) when ty = ethertype -> (
      match Of_wire.decode wire with
      | msg -> Some msg
      | exception _ -> None)
  | _ -> None

(* The outer OpenFlow header, the PACKET_IN fields before the frame,
   and the untagged Ethernet header [encapsulate] puts around the
   inner message. *)
let overhead_bytes = Of_wire.header_size + 10 + 14
