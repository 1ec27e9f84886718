open Jury_sim
open Jury_openflow
module Builder = Jury_topo.Builder
module Graph = Jury_topo.Graph
module Frame = Jury_packet.Frame

type attachment =
  | To_switch of Of_types.Dpid.t * int  (* peer dpid, peer port *)
  | To_host of int                      (* host index *)

module DpidMap = Map.Make (Of_types.Dpid)

(* Propagation delay of every data-plane link. *)
let link_latency = Time.us 50

type t = {
  engine : Engine.t;
  plan : Builder.plan;
  switches : Switch.t DpidMap.t;
  mutable hosts : Host.t array;
  attachments : (Of_types.Dpid.t * int, attachment) Hashtbl.t;
  down_links : (Of_types.Dpid.t * int, unit) Hashtbl.t;
  mutable data_plane_bytes : int;
}

let engine t = t.engine
let plan t = t.plan

let switch t dpid =
  match DpidMap.find_opt dpid t.switches with
  | Some sw -> sw
  | None -> raise Not_found

let switches t = DpidMap.fold (fun _ sw acc -> sw :: acc) t.switches []
let hosts t = Array.to_list t.hosts

let host t i =
  if i < 0 || i >= Array.length t.hosts then raise Not_found else t.hosts.(i)

let host_location t i =
  let slot = Builder.find_host_slot t.plan i in
  (slot.dpid, slot.port)

let deliver t ~from_dpid ~from_port frame =
  if not (Hashtbl.mem t.down_links (from_dpid, from_port)) then begin
    t.data_plane_bytes <- t.data_plane_bytes + Frame.size_on_wire frame;
    match Hashtbl.find_opt t.attachments (from_dpid, from_port) with
    | None -> ()
    | Some (To_host hi) ->
        let h = t.hosts.(hi) in
        Engine.schedule_on t.engine
          (Footprint.one (Footprint.host hi))
          ~after:link_latency
          (fun () -> Host.receive h frame)
    | Some (To_switch (peer, peer_port)) ->
        let sw = switch t peer in
        Engine.schedule_on t.engine (Switch.footprint sw) ~after:link_latency
          (fun () -> Switch.receive_frame sw ~in_port:peer_port frame)
  end

let create engine (plan : Builder.plan) ?(lenient_tables = false) () =
  let switches =
    List.fold_left
      (fun acc dpid ->
        DpidMap.add dpid
          (Switch.create engine dpid ~lenient_table:lenient_tables ())
          acc)
      DpidMap.empty
      (Graph.switches plan.graph)
  in
  let t =
    { engine;
      plan;
      switches;
      hosts = [||];
      attachments = Hashtbl.create 64;
      down_links = Hashtbl.create 8;
      data_plane_bytes = 0 }
  in
  (* Inter-switch links. *)
  List.iter
    (fun (e : Graph.edge) ->
      Hashtbl.replace t.attachments
        (e.a.dpid, e.a.port)
        (To_switch (e.b.dpid, e.b.port));
      Hashtbl.replace t.attachments
        (e.b.dpid, e.b.port)
        (To_switch (e.a.dpid, e.a.port));
      Switch.register_port (switch t e.a.dpid) e.a.port;
      Switch.register_port (switch t e.b.dpid) e.b.port)
    (Graph.edges plan.graph);
  (* Hosts. *)
  let nhosts = Builder.host_count plan in
  t.hosts <-
    Array.init nhosts (fun i ->
        let slot = Builder.find_host_slot plan i in
        let tx frame =
          let sw = switch t slot.dpid in
          Engine.schedule_on engine (Switch.footprint sw) ~after:link_latency
            (fun () -> Switch.receive_frame sw ~in_port:slot.port frame)
        in
        Hashtbl.replace t.attachments (slot.dpid, slot.port) (To_host i);
        Switch.register_port (switch t slot.dpid) slot.port;
        Host.create engine ~index:i ~tx);
  (* Egress wiring. *)
  DpidMap.iter
    (fun dpid sw ->
      Switch.set_forwarder sw (fun ~port frame ->
          deliver t ~from_dpid:dpid ~from_port:port frame))
    t.switches;
  t

let take_link_down t (e1 : Graph.endpoint) (e2 : Graph.endpoint) =
  Hashtbl.replace t.down_links (e1.dpid, e1.port) ();
  Hashtbl.replace t.down_links (e2.dpid, e2.port) ();
  Switch.port_down (switch t e1.dpid) e1.port;
  Switch.port_down (switch t e2.dpid) e2.port

let bring_link_up t (e1 : Graph.endpoint) (e2 : Graph.endpoint) =
  Hashtbl.remove t.down_links (e1.dpid, e1.port);
  Hashtbl.remove t.down_links (e2.dpid, e2.port);
  Switch.port_up (switch t e1.dpid) e1.port;
  Switch.port_up (switch t e2.dpid) e2.port

let data_plane_bytes t = t.data_plane_bytes
