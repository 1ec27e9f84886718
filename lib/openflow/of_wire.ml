open Jury_packet
module W = Wire_buf.Writer
module R = Wire_buf.Reader

let header_size = 8
let version = 0x01

let type_code : Of_message.payload -> int = function
  | Hello -> 0
  | Error _ -> 1
  | Echo_request _ -> 2
  | Echo_reply _ -> 3
  | Features_request -> 5
  | Features_reply _ -> 6
  | Packet_in _ -> 10
  | Flow_removed _ -> 11
  | Port_status _ -> 12
  | Packet_out _ -> 13
  | Flow_mod _ -> 14
  | Stats_request _ -> 16
  | Stats_reply _ -> 17
  | Barrier_request -> 18
  | Barrier_reply -> 19

(* --- Match encoding: OF 1.0 wildcards bitmap + fixed fields. ---
   Prefix wildcarding for nw_src/nw_dst uses the 6-bit mask-length
   subfields exactly as the spec lays them out. *)

let wc_in_port = 1 lsl 0
let wc_dl_vlan = 1 lsl 1
let wc_dl_src = 1 lsl 2
let wc_dl_dst = 1 lsl 3
let wc_dl_type = 1 lsl 4
let wc_nw_proto = 1 lsl 5
let wc_tp_src = 1 lsl 6
let wc_tp_dst = 1 lsl 7
(* bits 8-13: nw_src mask length, 14-19: nw_dst mask length *)
let wc_nw_tos = 1 lsl 21

let vlan_none_wire = 0xFFFF

let encode_match w (m : Of_match.t) =
  let wildcards = ref 0 in
  let opt v wc_bit = if v = None then wildcards := !wildcards lor wc_bit in
  opt m.in_port wc_in_port;
  opt m.dl_vlan wc_dl_vlan;
  opt m.dl_src wc_dl_src;
  opt m.dl_dst wc_dl_dst;
  opt m.dl_type wc_dl_type;
  opt m.nw_proto wc_nw_proto;
  opt m.tp_src wc_tp_src;
  opt m.tp_dst wc_tp_dst;
  opt m.nw_tos wc_nw_tos;
  let src_mask = match m.nw_src with None -> 32 | Some (_, b) -> 32 - b in
  let dst_mask = match m.nw_dst with None -> 32 | Some (_, b) -> 32 - b in
  wildcards := !wildcards lor (src_mask lsl 8) lor (dst_mask lsl 14);
  W.u32 w !wildcards;
  W.u16 w (Option.value m.in_port ~default:0);
  W.u48 w (Addr.Mac.to_int (Option.value m.dl_src ~default:Addr.Mac.zero));
  W.u48 w (Addr.Mac.to_int (Option.value m.dl_dst ~default:Addr.Mac.zero));
  W.u16 w
    (match m.dl_vlan with
    | None | Some None -> vlan_none_wire
    | Some (Some v) -> v);
  W.u8 w 0; (* vlan pcp *)
  W.u8 w 0; (* pad *)
  W.u16 w (Option.value m.dl_type ~default:0);
  W.u8 w (Option.value m.nw_tos ~default:0);
  W.u8 w (Option.value m.nw_proto ~default:0);
  W.u16 w 0; (* pad *)
  W.u32 w
    (match m.nw_src with
    | None -> 0
    | Some (p, _) -> Addr.Ipv4.to_int p);
  W.u32 w
    (match m.nw_dst with
    | None -> 0
    | Some (p, _) -> Addr.Ipv4.to_int p);
  W.u16 w (Option.value m.tp_src ~default:0);
  W.u16 w (Option.value m.tp_dst ~default:0)

(* Whether [wildcards] leaves the field of [bit] exact. *)
let has wildcards bit = wildcards land bit = 0

let decode_match r : Of_match.t =
  let wildcards = R.u32 r "match wildcards" in
  let in_port = R.u16 r "match in_port" in
  let dl_src = Addr.Mac.of_int (R.u48 r "match dl_src") in
  let dl_dst = Addr.Mac.of_int (R.u48 r "match dl_dst") in
  let dl_vlan = R.u16 r "match dl_vlan" in
  R.skip r 2 "match pcp+pad";
  let dl_type = R.u16 r "match dl_type" in
  let nw_tos = R.u8 r "match nw_tos" in
  let nw_proto = R.u8 r "match nw_proto" in
  R.skip r 2 "match pad";
  let nw_src = Addr.Ipv4.of_int (R.u32 r "match nw_src") in
  let nw_dst = Addr.Ipv4.of_int (R.u32 r "match nw_dst") in
  let tp_src = R.u16 r "match tp_src" in
  let tp_dst = R.u16 r "match tp_dst" in
  let src_mask = (wildcards lsr 8) land 0x3F in
  let dst_mask = (wildcards lsr 14) land 0x3F in
  { in_port = (if has wildcards wc_in_port then Some in_port else None);
    dl_src = (if has wildcards wc_dl_src then Some dl_src else None);
    dl_dst = (if has wildcards wc_dl_dst then Some dl_dst else None);
    dl_vlan =
      (if has wildcards wc_dl_vlan then
         Some (if dl_vlan = vlan_none_wire then None else Some dl_vlan)
       else None);
    dl_type = (if has wildcards wc_dl_type then Some dl_type else None);
    nw_src = (if src_mask >= 32 then None else Some (nw_src, 32 - src_mask));
    nw_dst = (if dst_mask >= 32 then None else Some (nw_dst, 32 - dst_mask));
    nw_proto = (if has wildcards wc_nw_proto then Some nw_proto else None);
    nw_tos = (if has wildcards wc_nw_tos then Some nw_tos else None);
    tp_src = (if has wildcards wc_tp_src then Some tp_src else None);
    tp_dst = (if has wildcards wc_tp_dst then Some tp_dst else None) }

(* --- Action encoding --- *)

let encode_action w : Of_action.t -> unit = function
  | Output p ->
      W.u16 w 0; W.u16 w 8; W.u16 w p; W.u16 w 0xFFFF (* max_len *)
  | Set_vlan v -> W.u16 w 1; W.u16 w 8; W.u16 w v; W.u16 w 0
  | Strip_vlan -> W.u16 w 3; W.u16 w 8; W.u32 w 0
  | Set_dl_src m ->
      W.u16 w 4; W.u16 w 16; W.u48 w (Addr.Mac.to_int m); W.zeros w 6
  | Set_dl_dst m ->
      W.u16 w 5; W.u16 w 16; W.u48 w (Addr.Mac.to_int m); W.zeros w 6
  | Set_nw_src i -> W.u16 w 6; W.u16 w 8; W.u32 w (Addr.Ipv4.to_int i)
  | Set_nw_dst i -> W.u16 w 7; W.u16 w 8; W.u32 w (Addr.Ipv4.to_int i)
  | Set_tp_src p -> W.u16 w 9; W.u16 w 8; W.u16 w p; W.u16 w 0
  | Set_tp_dst p -> W.u16 w 10; W.u16 w 8; W.u16 w p; W.u16 w 0
  | Enqueue (p, q) ->
      W.u16 w 11; W.u16 w 16; W.u16 w p; W.zeros w 6; W.u32 w q; W.zeros w 2

let decode_action r : Of_action.t =
  let ty = R.u16 r "action type" in
  let len = R.u16 r "action len" in
  match ty with
  | 0 ->
      let p = R.u16 r "output port" in
      R.skip r 2 "max_len";
      Output p
  | 1 ->
      let v = R.u16 r "vlan vid" in
      R.skip r 2 "pad";
      Set_vlan v
  | 3 ->
      R.skip r 4 "pad";
      Strip_vlan
  | 4 ->
      let m = Addr.Mac.of_int (R.u48 r "dl addr") in
      R.skip r 6 "pad";
      Set_dl_src m
  | 5 ->
      let m = Addr.Mac.of_int (R.u48 r "dl addr") in
      R.skip r 6 "pad";
      Set_dl_dst m
  | 6 -> Set_nw_src (Addr.Ipv4.of_int (R.u32 r "nw addr"))
  | 7 -> Set_nw_dst (Addr.Ipv4.of_int (R.u32 r "nw addr"))
  | 9 ->
      let p = R.u16 r "tp port" in
      R.skip r 2 "pad";
      Set_tp_src p
  | 10 ->
      let p = R.u16 r "tp port" in
      R.skip r 2 "pad";
      Set_tp_dst p
  | 11 ->
      let p = R.u16 r "enqueue port" in
      R.skip r 6 "pad";
      let q = R.u32 r "queue id" in
      R.skip r 2 "pad";
      Enqueue (p, q)
  | _ ->
      ignore len;
      invalid_arg (Printf.sprintf "Of_wire: unknown action type %d" ty)

(* The u16 length prefix is written as a placeholder and patched once
   the actions are in. *)
let encode_actions w actions =
  let at = W.length w in
  W.u16 w 0;
  List.iter (encode_action w) actions;
  W.patch_u16 w ~pos:at (W.length w - at - 2)

let decode_actions r =
  let len = R.u16 r "actions len" in
  let stop = R.pos r + len in
  let rec go acc =
    if R.pos r >= stop then List.rev acc else go (decode_action r :: acc)
  in
  go []

(* The actions that fill the rest of a FLOW_MOD's body. *)
let rec actions_to_end r =
  if R.remaining r = 0 then []
  else
    let a = decode_action r in
    a :: actions_to_end r

let buffer_wire = function None -> 0xFFFF_FFFF | Some b -> b
let buffer_of_wire = function 0xFFFF_FFFF -> None | b -> Some b

(* --- Message bodies --- *)

let encode_body w : Of_message.payload -> unit = function
  | Hello | Features_request | Barrier_request | Barrier_reply -> ()
  | Error (ty, code) -> W.u16 w ty; W.u16 w code
  | Echo_request s | Echo_reply s -> W.bytes w s
  | Features_reply fr ->
      W.u64 w (Of_types.Dpid.to_int64 fr.datapath_id);
      W.u32 w fr.n_buffers;
      W.u8 w fr.n_tables;
      W.zeros w 3;
      W.u32 w 0; (* capabilities *)
      W.u32 w 0; (* actions *)
      W.u16 w (List.length fr.ports);
      List.iter (fun p -> W.u16 w p) fr.ports
  | Packet_in pi ->
      W.u32 w (buffer_wire pi.buffer_id);
      let data = Frame.encode pi.frame in
      W.u16 w (String.length data);
      W.u16 w pi.in_port;
      W.u8 w (match pi.reason with No_match -> 0 | Action_to_controller -> 1);
      W.u8 w 0;
      W.bytes w data
  | Packet_out po ->
      W.u32 w (buffer_wire po.po_buffer_id);
      W.u16 w po.po_in_port;
      encode_actions w po.po_actions;
      (match po.po_frame with
      | None -> ()
      | Some frame -> W.bytes w (Frame.encode frame))
  | Flow_mod fm ->
      encode_match w fm.fm_match;
      W.u64 w fm.cookie;
      W.u16 w
        (match fm.command with
        | Add -> 0
        | Modify -> 1
        | Modify_strict -> 2
        | Delete -> 3
        | Delete_strict -> 4);
      W.u16 w fm.idle_timeout;
      W.u16 w fm.hard_timeout;
      W.u16 w fm.priority;
      W.u32 w (buffer_wire fm.fm_buffer_id);
      W.u16 w (Option.value fm.out_port ~default:Of_types.Port.none);
      W.u16 w 1; (* flags: SEND_FLOW_REM *)
      List.iter (encode_action w) fm.actions
  | Flow_removed fr ->
      encode_match w fr.fr_match;
      W.u64 w fr.fr_cookie;
      W.u16 w fr.fr_priority;
      W.u8 w
        (match fr.fr_reason with
        | Idle_timeout -> 0
        | Hard_timeout -> 1
        | Deleted -> 2);
      W.u8 w 0;
      W.u32 w fr.duration_sec;
      W.u32 w 0; (* duration nsec *)
      W.u16 w 0; (* idle timeout *)
      W.zeros w 2;
      W.u64 w fr.packet_count;
      W.u64 w fr.byte_count
  | Port_status ps ->
      W.u8 w
        (match ps.ps_reason with
        | Port_add -> 0
        | Port_delete -> 1
        | Port_modify -> 2);
      W.zeros w 7;
      W.u16 w ps.ps_port;
      W.u8 w (if ps.ps_link_up then 1 else 0)
  | Stats_request (Flow_stats_request m) ->
      W.u16 w 1;
      W.u16 w 0;
      encode_match w m
  | Stats_request Table_stats_request ->
      W.u16 w 3;
      W.u16 w 0
  | Stats_reply (Flow_stats_reply stats) ->
      W.u16 w 1;
      W.u16 w 0;
      W.u16 w (List.length stats);
      List.iter
        (fun (fs : Of_message.flow_stat) ->
          encode_match w fs.fs_match;
          W.u16 w fs.fs_priority;
          W.u64 w fs.fs_cookie;
          W.u64 w fs.fs_packet_count;
          encode_actions w fs.fs_actions)
        stats
  | Stats_reply (Table_stats_reply n) ->
      W.u16 w 3;
      W.u16 w 0;
      W.u32 w n

let decode_body r ty : Of_message.payload =
  match ty with
  | 0 -> Hello
  | 1 ->
      let t = R.u16 r "error type" in
      let c = R.u16 r "error code" in
      Error (t, c)
  | 2 -> Echo_request (R.rest r)
  | 3 -> Echo_reply (R.rest r)
  | 5 -> Features_request
  | 6 ->
      let datapath_id = Of_types.Dpid.of_int64 (R.u64 r "dpid") in
      let n_buffers = R.u32 r "n_buffers" in
      let n_tables = R.u8 r "n_tables" in
      R.skip r 3 "pad";
      R.skip r 8 "capabilities+actions";
      let n_ports = R.u16 r "n_ports" in
      let ports = List.init n_ports (fun _ -> R.u16 r "port") in
      Features_reply { datapath_id; n_buffers; n_tables; ports }
  | 10 ->
      let buffer_id = buffer_of_wire (R.u32 r "buffer id") in
      let total_len = R.u16 r "total len" in
      let in_port = R.u16 r "in port" in
      let reason =
        match R.u8 r "reason" with
        | 0 -> Of_message.No_match
        | 1 -> Of_message.Action_to_controller
        | n -> invalid_arg (Printf.sprintf "Of_wire: bad PACKET_IN reason %d" n)
      in
      R.skip r 1 "pad";
      let frame = Frame.decode (R.bytes r total_len "packet data") in
      Packet_in { buffer_id; in_port; reason; frame }
  | 13 ->
      let po_buffer_id = buffer_of_wire (R.u32 r "buffer id") in
      let po_in_port = R.u16 r "in port" in
      let po_actions = decode_actions r in
      let po_frame =
        if R.remaining r > 0 then Some (Frame.decode (R.rest r)) else None
      in
      Packet_out { po_buffer_id; po_in_port; po_actions; po_frame }
  | 14 ->
      let fm_match = decode_match r in
      let cookie = R.u64 r "cookie" in
      let command =
        match R.u16 r "command" with
        | 0 -> Of_message.Add
        | 1 -> Of_message.Modify
        | 2 -> Of_message.Modify_strict
        | 3 -> Of_message.Delete
        | 4 -> Of_message.Delete_strict
        | n -> invalid_arg (Printf.sprintf "Of_wire: bad FLOW_MOD command %d" n)
      in
      let idle_timeout = R.u16 r "idle" in
      let hard_timeout = R.u16 r "hard" in
      let priority = R.u16 r "priority" in
      let fm_buffer_id = buffer_of_wire (R.u32 r "buffer id") in
      let out_port =
        match R.u16 r "out port" with
        | p when p = Of_types.Port.none -> None
        | p -> Some p
      in
      R.skip r 2 "flags";
      let actions = actions_to_end r in
      Flow_mod
        { command; fm_match; priority; cookie; idle_timeout; hard_timeout;
          actions; fm_buffer_id; out_port }
  | 11 ->
      let fr_match = decode_match r in
      let fr_cookie = R.u64 r "cookie" in
      let fr_priority = R.u16 r "priority" in
      let fr_reason =
        match R.u8 r "reason" with
        | 0 -> Of_message.Idle_timeout
        | 1 -> Of_message.Hard_timeout
        | 2 -> Of_message.Deleted
        | n ->
            invalid_arg (Printf.sprintf "Of_wire: bad FLOW_REMOVED reason %d" n)
      in
      R.skip r 1 "pad";
      let duration_sec = R.u32 r "duration" in
      R.skip r 4 "duration nsec";
      R.skip r 4 "idle+pad";
      let packet_count = R.u64 r "packets" in
      let byte_count = R.u64 r "bytes" in
      Flow_removed
        { fr_match; fr_cookie; fr_priority; fr_reason; duration_sec;
          packet_count; byte_count }
  | 12 ->
      let ps_reason =
        match R.u8 r "reason" with
        | 0 -> Of_message.Port_add
        | 1 -> Of_message.Port_delete
        | 2 -> Of_message.Port_modify
        | n ->
            invalid_arg (Printf.sprintf "Of_wire: bad PORT_STATUS reason %d" n)
      in
      R.skip r 7 "pad";
      let ps_port = R.u16 r "port" in
      let ps_link_up = R.u8 r "link state" = 1 in
      Port_status { ps_reason; ps_port; ps_link_up }
  | 16 -> (
      let sty = R.u16 r "stats type" in
      R.skip r 2 "flags";
      match sty with
      | 1 -> Stats_request (Flow_stats_request (decode_match r))
      | 3 -> Stats_request Table_stats_request
      | n -> invalid_arg (Printf.sprintf "Of_wire: bad stats request %d" n))
  | 17 -> (
      let sty = R.u16 r "stats type" in
      R.skip r 2 "flags";
      match sty with
      | 1 ->
          let n = R.u16 r "n stats" in
          let stats =
            List.init n (fun _ : Of_message.flow_stat ->
                let fs_match = decode_match r in
                let fs_priority = R.u16 r "priority" in
                let fs_cookie = R.u64 r "cookie" in
                let fs_packet_count = R.u64 r "packets" in
                let fs_actions = decode_actions r in
                { fs_match; fs_priority; fs_cookie; fs_actions;
                  fs_packet_count })
          in
          Stats_reply (Flow_stats_reply stats)
      | 3 -> Stats_reply (Table_stats_reply (R.u32 r "active"))
      | n -> invalid_arg (Printf.sprintf "Of_wire: bad stats reply %d" n))
  | 18 -> Barrier_request
  | 19 -> Barrier_reply
  | n -> invalid_arg (Printf.sprintf "Of_wire: unknown message type %d" n)

let encode (msg : Of_message.t) =
  let w = W.create () in
  W.u8 w version;
  W.u8 w (type_code msg.payload);
  W.u16 w 0; (* length: patched below *)
  W.u32 w msg.xid;
  encode_body w msg.payload;
  W.patch_u16 w ~pos:2 (W.length w);
  W.contents w

let decode_one r : Of_message.t =
  let v = R.u8 r "version" in
  if v <> version then
    invalid_arg (Printf.sprintf "Of_wire: unsupported version %d" v);
  let ty = R.u8 r "type" in
  let len = R.u16 r "length" in
  let xid = R.u32 r "xid" in
  let payload =
    if R.remaining r = len - header_size then begin
      (* The body is the rest of the input, so it needs no copy to be
         bounded. *)
      let payload = decode_body r ty in
      R.skip r (R.remaining r) "body";
      payload
    end
    else decode_body (R.of_string (R.bytes r (len - header_size) "body")) ty
  in
  { xid; payload }

let decode s = decode_one (R.of_string s)

let decode_all s =
  let r = R.of_string s in
  let rec go acc =
    if R.remaining r = 0 then List.rev acc else go (decode_one r :: acc)
  in
  go []

(* --- Sizes: what [encode] writes, counted without writing it --- *)

let match_size = 40

(* Enqueue writes 18 bytes though its length field says 16, and
   [decode_action] reads the same 18. *)
let action_size : Of_action.t -> int = function
  | Output _ | Set_vlan _ | Strip_vlan | Set_nw_src _ | Set_nw_dst _
  | Set_tp_src _ | Set_tp_dst _ ->
      8
  | Set_dl_src _ | Set_dl_dst _ -> 16
  | Enqueue _ -> 18

let actions_size actions =
  List.fold_left (fun n a -> n + action_size a) 0 actions

let body_size : Of_message.payload -> int = function
  | Hello | Features_request | Barrier_request | Barrier_reply -> 0
  | Error _ -> 4
  | Echo_request s | Echo_reply s -> String.length s
  | Features_reply fr -> 26 + (2 * List.length fr.ports)
  | Packet_in pi -> 10 + Frame.encoded_length pi.frame
  | Packet_out po ->
      8 + actions_size po.po_actions
      + (match po.po_frame with
        | None -> 0
        | Some frame -> Frame.encoded_length frame)
  | Flow_mod fm -> match_size + 24 + actions_size fm.actions
  | Flow_removed _ -> match_size + 40
  | Port_status _ -> 11
  | Stats_request (Flow_stats_request _) -> 4 + match_size
  | Stats_request Table_stats_request -> 4
  | Stats_reply (Flow_stats_reply stats) ->
      List.fold_left
        (fun n (fs : Of_message.flow_stat) ->
          n + match_size + 20 + actions_size fs.fs_actions)
        6 stats
  | Stats_reply (Table_stats_reply _) -> 8

let encoded_size (msg : Of_message.t) = header_size + body_size msg.payload
