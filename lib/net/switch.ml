open Jury_sim
open Jury_openflow
module Frame = Jury_packet.Frame

type t = {
  engine : Engine.t;
  dpid : Of_types.Dpid.t;
  table : Flow_table.t;
  buffers : (int, int * Frame.t) Hashtbl.t;  (* buffer id -> in_port, frame *)
  mutable next_buffer : int;
  mutable next_xid : int;
  mutable ports : int list;
  down_ports : (int, unit) Hashtbl.t;
  mutable forwarder : port:int -> Frame.t -> unit;
  mutable control_tx : Of_message.t -> unit;
  mutable sweep_armed : bool;
  mutable tap : ([ `Rx | `Tx ] -> int -> Frame.t -> unit) option;
  mutable packet_in_count : int;
  mutable flow_mod_count : int;
  mutable packet_out_count : int;
  mutable dropped_count : int;
}

let expiry_period = Time.sec 2

(* Packet buffers a switch advertises; a PACKET_IN raised while every
   one holds a frame carries no buffer id. *)
let buffer_slots = 256

let create engine dpid ?(lenient_table = false) () =
  { engine;
    dpid;
    table = Flow_table.create ~lenient:lenient_table ();
    buffers = Hashtbl.create 64;
    next_buffer = 0;
    next_xid = 0;
    ports = [];
    down_ports = Hashtbl.create 4;
    forwarder = (fun ~port:_ _ -> ());
    control_tx = (fun _ -> ());
    sweep_armed = false;
    tap = None;
    packet_in_count = 0;
    flow_mod_count = 0;
    packet_out_count = 0;
    dropped_count = 0 }

let dpid t = t.dpid
let table t = t.table

let register_port t port =
  if not (List.mem port t.ports) then t.ports <- port :: t.ports

let ports t = List.sort compare t.ports
let set_forwarder t f = t.forwarder <- f
let set_tap t f = t.tap <- f
let set_control_tx t f = t.control_tx <- f

let fresh_xid t =
  t.next_xid <- t.next_xid + 1;
  t.next_xid

let send t payload = t.control_tx (Of_message.make ~xid:(fresh_xid t) payload)

let flow_removed_payload ~now ~reason (e : Flow_table.entry) =
  Of_message.Flow_removed
    { fr_match = e.rule;
      fr_cookie = e.cookie;
      fr_priority = e.priority;
      fr_reason = reason;
      duration_sec =
        int_of_float (Time.to_float_sec (Time.sub now e.installed_at));
      packet_count = e.packet_count;
      byte_count = e.byte_count }

(* Periodic table sweep: expired entries leave the table and are
   reported to the controller as FLOW_REMOVED, as a real switch does.
   The sweep arms itself when rules exist and stops when the table
   drains, so an idle switch schedules no events (and simulations
   terminate). *)
let rec ensure_expiry_sweep t =
  if (not t.sweep_armed) && Flow_table.has_expirable t.table then begin
    t.sweep_armed <- true;
    ignore
      (Engine.schedule t.engine
         ~footprint:
           (Footprint.touches [ Footprint.switch (Of_types.Dpid.hash t.dpid) ])
         ~after:expiry_period
         (fun () ->
           t.sweep_armed <- false;
           let now = Engine.now t.engine in
           List.iter
             (fun (e : Flow_table.entry) ->
               let reason =
                 if
                   e.hard_timeout > 0
                   && Time.to_float_sec (Time.sub now e.installed_at)
                      >= float_of_int e.hard_timeout
                 then Of_message.Hard_timeout
                 else Of_message.Idle_timeout
               in
               send t (flow_removed_payload ~now ~reason e))
             (Flow_table.expire t.table ~now);
           ensure_expiry_sweep t))
  end

let port_usable t port = not (Hashtbl.mem t.down_ports port)

let emit t ~in_port ~port frame =
  (* Expand virtual ports into concrete physical egress. *)
  let physical =
    if port = Of_types.Port.flood || port = Of_types.Port.all then
      List.filter
        (fun p -> (port = Of_types.Port.all || p <> in_port) && port_usable t p)
        t.ports
    else if port = Of_types.Port.in_port then [ in_port ]
    else if Of_types.Port.is_physical port then
      if port_usable t port then [ port ]
      else begin
        t.dropped_count <- t.dropped_count + 1;
        []
      end
    else []
  in
  List.iter
    (fun p ->
      (match t.tap with Some tap -> tap `Tx p frame | None -> ());
      t.forwarder ~port:p frame)
    physical

let buffer_frame t ~in_port frame =
  if Hashtbl.length t.buffers >= buffer_slots then None
  else begin
    t.next_buffer <- t.next_buffer + 1;
    Hashtbl.replace t.buffers t.next_buffer (in_port, frame);
    Some t.next_buffer
  end

let raise_packet_in t ~in_port ~reason frame =
  t.packet_in_count <- t.packet_in_count + 1;
  let buffer_id = buffer_frame t ~in_port frame in
  send t (Of_message.Packet_in { buffer_id; in_port; reason; frame })

let receive_frame t ~in_port frame =
  (match t.tap with Some tap -> tap `Rx in_port frame | None -> ());
  match Flow_table.lookup t.table ~now:(Engine.now t.engine) ~in_port frame with
  | None -> raise_packet_in t ~in_port ~reason:Of_message.No_match frame
  | Some entry ->
      if Of_action.is_drop entry.actions then
        t.dropped_count <- t.dropped_count + 1
      else begin
        let frame', out_ports = Of_action.apply entry.actions frame in
        List.iter
          (fun port ->
            if port = Of_types.Port.controller then
              raise_packet_in t ~in_port
                ~reason:Of_message.Action_to_controller frame'
            else emit t ~in_port ~port frame')
          out_ports
      end

let apply_buffered t buffer_id actions =
  match Hashtbl.find_opt t.buffers buffer_id with
  | None -> ()
  | Some (in_port, frame) ->
      Hashtbl.remove t.buffers buffer_id;
      let frame', out_ports = Of_action.apply actions frame in
      List.iter (fun port -> emit t ~in_port ~port frame') out_ports

let features_reply t =
  Of_message.Features_reply
    { datapath_id = t.dpid;
      n_buffers = buffer_slots;
      n_tables = 1;
      ports = ports t }

let handle_control t (msg : Of_message.t) =
  match msg.payload with
  | Of_message.Hello -> ()
  | Of_message.Echo_request body ->
      send t (Of_message.Echo_reply body)
  | Of_message.Features_request -> send t (features_reply t)
  | Of_message.Flow_mod fm -> (
      t.flow_mod_count <- t.flow_mod_count + 1;
      let now = Engine.now t.engine in
      match Flow_table.apply_flow_mod t.table ~now fm with
      | Flow_table.Installed | Flow_table.Modified _ ->
          ensure_expiry_sweep t;
          (match fm.fm_buffer_id with
          | None -> ()
          | Some b -> apply_buffered t b fm.actions)
      | Flow_table.Removed gone ->
          List.iter
            (fun (e : Flow_table.entry) ->
              send t
                (Of_message.Flow_removed
                   { fr_match = e.rule;
                     fr_cookie = e.cookie;
                     fr_priority = e.priority;
                     fr_reason = Of_message.Deleted;
                     duration_sec =
                       int_of_float
                         (Time.to_float_sec (Time.sub now e.installed_at));
                     packet_count = e.packet_count;
                     byte_count = e.byte_count }))
            gone
      | Flow_table.Rejected _ ->
          let ty, code = Of_error.to_wire Of_error.flow_mod_rejected in
          send t (Of_message.Error (ty, code)))
  | Of_message.Packet_out po -> (
      t.packet_out_count <- t.packet_out_count + 1;
      match (po.po_buffer_id, po.po_frame) with
      | Some b, _ -> apply_buffered t b po.po_actions
      | None, Some frame ->
          let frame', out_ports = Of_action.apply po.po_actions frame in
          List.iter
            (fun port -> emit t ~in_port:po.po_in_port ~port frame')
            out_ports
      | None, None -> ())
  | Of_message.Barrier_request -> send t Of_message.Barrier_reply
  | Of_message.Stats_request (Of_message.Flow_stats_request m) ->
      let stats =
        Flow_table.entries t.table
        |> List.filter (fun (e : Flow_table.entry) ->
               Of_match.more_specific e.rule m)
        |> List.map (fun (e : Flow_table.entry) : Of_message.flow_stat ->
               { fs_match = e.rule;
                 fs_priority = e.priority;
                 fs_cookie = e.cookie;
                 fs_actions = e.actions;
                 fs_packet_count = e.packet_count })
      in
      send t (Of_message.Stats_reply (Of_message.Flow_stats_reply stats))
  | Of_message.Stats_request Of_message.Table_stats_request ->
      send t
        (Of_message.Stats_reply
           (Of_message.Table_stats_reply (Flow_table.size t.table)))
  | Of_message.Features_reply _ | Of_message.Packet_in _
  | Of_message.Flow_removed _ | Of_message.Port_status _
  | Of_message.Barrier_reply | Of_message.Stats_reply _
  | Of_message.Echo_reply _ | Of_message.Error _ ->
      (* Controller-to-switch direction never carries these. *)
      ()

let port_down t port =
  Hashtbl.replace t.down_ports port ();
  send t
    (Of_message.Port_status
       { ps_reason = Of_message.Port_modify; ps_port = port; ps_link_up = false })

let port_up t port =
  Hashtbl.remove t.down_ports port;
  send t
    (Of_message.Port_status
       { ps_reason = Of_message.Port_modify; ps_port = port; ps_link_up = true })

let announce t =
  send t Of_message.Hello;
  send t (features_reply t)

let packet_in_count t = t.packet_in_count
let flow_mod_count t = t.flow_mod_count
let packet_out_count t = t.packet_out_count
let dropped_count t = t.dropped_count
