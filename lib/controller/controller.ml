open Jury_sim
open Jury_openflow
module Frame = Jury_packet.Frame
module Fabric = Jury_store.Fabric
module Event = Jury_store.Event
module Graph = Jury_topo.Graph
module Names = Jury_store.Cache_names
module DpidMap = Map.Make (Of_types.Dpid)
module Mac = Jury_packet.Addr.Mac

type observer = {
  on_response : Types.Taint.t option -> Types.trigger -> Types.action list -> unit;
  on_applied : Types.Taint.t option -> Types.action -> unit;
  on_write_failed : Types.Taint.t option -> Types.action -> string -> unit;
}

let null_observer =
  { on_response = (fun _ _ _ -> ());
    on_applied = (fun _ _ -> ());
    on_write_failed = (fun _ _ _ -> ()) }

(* One switch's flood, read off the view. *)
type flood = {
  ports : int list;  (* spanning-tree plus host ports, sorted, unique *)
  mutable outputs : (int * Of_action.t list) list;
      (* per ingress port planned so far: [Output] to the other ports *)
}

type t = {
  engine : Engine.t;
  id : int;
  footprint : Footprint.t;  (* this replica, for its own events *)
  profile : Profile.t;
  fabric : Fabric.t;
  flow_memo : Values.Flow.Memo.t;  (* shared by the cluster's replicas *)
  pipeline : Pipeline.t;
  rng : Rng.t;
  mutable switch_tx : Of_types.Dpid.t -> Of_message.t -> unit;
  mutable observer : observer;
  mutable next_xid : int;
  mutable next_internal : int;
  mutable mutator :
    (Types.trigger -> Types.action list -> Types.action list) option;
  mutable response_delay : Time.t;
  mutable omit_probability : float;
  (* Cached topology view, rebuilt lazily when LINKSDB/SWITCHDB move. *)
  mutable view : Graph.t;
  mutable view_dirty : bool;
  (* What planning reads off [view], each computed on first use and
     dropped with the view by [rebuild_view]. They live here, not in
     [Graph.t], so that reading a graph never writes to it. *)
  mutable trees : Graph.tree DpidMap.t;  (* BFS tree per root *)
  mutable links : int list DpidMap.t;  (* per switch: its link ports *)
  mutable floods : flood DpidMap.t;
  (* HOSTDB decoded, keyed by MAC: the attachment point of every host
     whose key [Values.Host.key] renders and whose value parses. The
     store listener keeps it in step; [invalidate_view] dirties it and
     the next read rebuilds it from the table. *)
  hosts : (Mac.t, Of_types.Dpid.t * int) Hashtbl.t;
  mutable hosts_dirty : bool;
}

(* Forward reference: the proactive host-rule app needs planning and
   submission machinery defined further down the module. *)
let proactive_host_rules_hook : (t -> Event.t -> unit) ref =
  ref (fun _ _ -> ())

(* Planning looks a host up by the key [Values.Host.key] renders, so a
   key it never renders is never found and stays out; a value that does
   not parse floods like a missing host, so it is left out too. *)
let note_host t ~key value =
  match Mac.of_string key with
  | exception Invalid_argument _ -> ()
  | mac when Values.Host.key mac <> key -> ()
  | mac -> (
      match Option.bind value Values.Host.parse with
      | Some (dpid, port, _) -> Hashtbl.replace t.hosts mac (dpid, port)
      | None -> Hashtbl.remove t.hosts mac)

let rec create engine ~id ~profile ~fabric ~flow_memo =
  let pipeline =
    (* Completion events run controller application code: they touch
       this replica's state (caches' local views, private RNGs) and its
       store shard; everything further out is reached via separately
       scheduled (and separately tagged) events. *)
    Pipeline.create engine
      ~footprint:(Footprint.two (Footprint.controller id) (Footprint.store id))
      (Pipeline.config ~service_sigma:profile.Profile.service_sigma
         ~base_service:profile.Profile.base_service ())
  in
  let t =
    { engine;
      id;
      footprint = Footprint.one (Footprint.controller id);
      profile;
      fabric;
      flow_memo;
      pipeline;
      rng = Rng.split (Engine.rng engine);
      switch_tx = (fun _ _ -> ());
      observer = null_observer;
      next_xid = 0;
      next_internal = 0;
      mutator = None;
      response_delay = Time.zero;
      omit_probability = 0.;
      view = Graph.create ();
      view_dirty = true;
      trees = DpidMap.empty;
      links = DpidMap.empty;
      floods = DpidMap.empty;
      hosts = Hashtbl.create 64;
      hosts_dirty = true }
  in
  Fabric.subscribe fabric ~node:id (fun ~local ev ->
      if not local then begin
        (* Applying a peer's replicated event consumes pipeline time:
           flow-rule backups are expensive (ONOS/Hazelcast), the rest is
           cheap. *)
        let cost =
          match ev.Event.cache with
          | Names.Flowsdb -> profile.Profile.remote_flow_apply
          | _ -> profile.Profile.remote_other_apply
        in
        if Time.(cost > Time.zero) then Pipeline.add_load t.pipeline cost;
        (* Transparent remote directives (§II-A.1): a FLOWSDB write by a
           peer targeting a switch we master becomes a real FLOW_MOD
           issued by us. *)
        match ev.Event.cache with
        | Names.Flowsdb -> delegate_flow_event t ev
        | _ -> ()
      end;
      (match ev.Event.cache with
      | Names.Linksdb | Names.Switchdb -> t.view_dirty <- true
      | Names.Hostdb when not t.hosts_dirty ->
          note_host t ~key:ev.Event.key
            (match ev.Event.op with
            | Event.Delete -> None
            | Event.Create | Event.Update -> Some ev.Event.value)
      | _ -> ());
      (* Vanilla ODL pushes destination rules the moment a host is
         known (proactive forwarding). *)
      match (profile.Profile.forwarding, ev.Event.cache, ev.Event.op) with
      | Profile.Proactive_dst, Names.Hostdb, (Event.Create | Event.Update) ->
          !proactive_host_rules_hook t ev
      | _ -> ())
  |> ignore;
  t

and delegate_flow_event t (ev : Event.t) =
  match (ev.Event.op, Values.Flow.dpid_of_key ev.Event.key) with
  | (Event.Create | Event.Update), Some dpid when masters t dpid -> (
      match Values.Flow.parse ev.Event.value with
      | Some fm ->
          send_network t ev.Event.taint dpid (Of_message.Flow_mod fm)
      | None -> ())
  | Event.Delete, Some _ | _, _ -> ()

and masters t dpid = master_of t dpid = Some t.id

and master_of t dpid =
  match
    Fabric.read t.fabric ~node:t.id ~cache:Names.masterdb
      ~key:(Values.Master.key dpid)
  with
  | Some v -> Values.Master.parse v
  | None -> None

and send_network t taint dpid payload =
  t.next_xid <- t.next_xid + 1;
  let msg = Of_message.make ~xid:t.next_xid payload in
  t.switch_tx dpid msg;
  t.observer.on_applied taint (Types.Network_send { dpid; payload })

let id t = t.id
let profile t = t.profile
let engine t = t.engine
let fabric t = t.fabric
let pipeline t = t.pipeline
let set_switch_tx t f = t.switch_tx <- f
let set_observer t o = t.observer <- o
let set_mutator t m = t.mutator <- m
let set_response_delay t d = t.response_delay <- d
let set_omit_probability t p = t.omit_probability <- p
let omit_probability t = t.omit_probability

(* After an out-of-band state transfer (crash-rejoin resync) the cached
   topology view and host table no longer match the replica's tables;
   mark both dirty so the next read rebuilds from the resynced caches. *)
let invalidate_view t =
  t.view_dirty <- true;
  t.hosts_dirty <- true

(* --- Shared-state reads --- *)

let read t cache key = Fabric.read t.fabric ~node:t.id ~cache ~key
let entries t cache = Fabric.entries t.fabric ~node:t.id ~cache

let switch_ports t dpid =
  match read t Names.switchdb (Values.Switch.key dpid) with
  | None -> []
  | Some v -> (
      match Values.Switch.parse v with
      | Some (_, ports) -> ports
      | None -> [])

let mastered_switches t =
  entries t Names.masterdb
  |> List.filter_map (fun (k, v) ->
         match (Values.parse_dpid_key k, Values.Master.parse v) with
         | Some dpid, Some m when m = t.id -> Some dpid
         | _ -> None)

let rebuild_view t =
  let g = Graph.create () in
  List.iter
    (fun (k, _) ->
      match Values.parse_dpid_key k with
      | Some dpid -> Graph.add_switch g dpid
      | None -> ())
    (entries t Names.switchdb);
  List.iter
    (fun (k, v) ->
      if v = Values.Link.value_up then
        match Values.Link.parse_key k with
        | Some ((d1, p1), (d2, p2)) ->
            Graph.add_link g { dpid = d1; port = p1 } { dpid = d2; port = p2 }
        | None -> ())
    (entries t Names.linksdb);
  t.view <- g;
  t.view_dirty <- false;
  t.trees <- DpidMap.empty;
  t.links <- DpidMap.empty;
  t.floods <- DpidMap.empty

let view t =
  if t.view_dirty then rebuild_view t;
  t.view

(* The memo readers below find with [DpidMap.find], which allocates
   nothing on a hit where [find_opt] would box its answer. *)
let link_ports t dpid =
  let g = view t in
  match DpidMap.find dpid t.links with
  | ports -> ports
  | exception Not_found ->
      let ports = List.map fst (Graph.neighbors g dpid) in
      t.links <- DpidMap.add dpid ports t.links;
      ports

let host_ports t dpid =
  let links = link_ports t dpid in
  List.filter (fun p -> not (List.mem p links)) (switch_ports t dpid)

let liveness_master_for_link t d1 d2 =
  match (master_of t d1, master_of t d2) with
  | Some m1, Some m2 -> Some (max m1 m2)
  | Some m, None | None, Some m -> Some m
  | None, None -> None

(* --- Routes, memoized per view --- *)

(* [view] comes first in each reader: a dirty view rebuilds and drops
   the memo before it is consulted. *)
let tree t root =
  let g = view t in
  match DpidMap.find root t.trees with
  | tree -> tree
  | exception Not_found ->
      let tree = Graph.bfs_tree g root in
      t.trees <- DpidMap.add root tree t.trees;
      tree

let first_hop t src dst =
  let g = view t in
  Graph.first_hop g (tree t src) dst

let next_hop_choices t src dst =
  let g = view t in
  Graph.next_hops g (tree t dst) src

let flood t dpid =
  (* Loop-free flood: ports on the cluster-wide spanning tree plus all
     host ports, minus the ingress. The tree must be rooted identically
     at every switch (the STP root bridge — lowest dpid), otherwise
     differently-rooted trees disagree on which cycle edge to cut and
     broadcasts loop. *)
  let g = view t in
  match DpidMap.find dpid t.floods with
  | f -> f
  | exception Not_found ->
      let tree_ports =
        match Graph.switches g with
        | root :: _ when Graph.has_switch g dpid ->
            (* Graph.switches is sorted, so the head is the lowest
               dpid. *)
            Graph.tree_ports (tree t root) dpid
        | _ -> []
      in
      let f =
        { ports = List.sort_uniq compare (tree_ports @ host_ports t dpid);
          outputs = [] }
      in
      t.floods <- DpidMap.add dpid f t.floods;
      f

let flood_ports t dpid ~in_port =
  List.filter (fun p -> p <> in_port) (flood t dpid).ports

let flood_actions t dpid ~in_port =
  let f = flood t dpid in
  match List.assoc in_port f.outputs with
  | actions -> actions
  | exception Not_found ->
      let actions =
        List.map (fun p -> Of_action.Output p) (flood_ports t dpid ~in_port)
      in
      f.outputs <- (in_port, actions) :: f.outputs;
      actions

(* The attachment point HOSTDB gives [mac]; raises [Not_found] when it
   names none. *)
let host t mac =
  if t.hosts_dirty then begin
    Hashtbl.reset t.hosts;
    t.hosts_dirty <- false;
    List.iter
      (fun (key, value) -> note_host t ~key (Some value))
      (entries t Names.hostdb)
  end;
  Hashtbl.find t.hosts mac

(* --- Planning --- *)

let plan_flood t dpid ~in_port ~buffer_id frame =
  match flood_actions t dpid ~in_port with
  | [] -> []
  | actions ->
      [ Types.Network_send
          { dpid;
            payload =
              Of_message.Packet_out
                { po_buffer_id = buffer_id;
                  po_in_port = in_port;
                  po_actions = actions;
                  po_frame =
                    (match buffer_id with None -> Some frame | Some _ -> None) } } ]

let learn_host_actions t dpid ~port ~mac ~ip =
  (* HOSTDB's key, ARPDB's value and EDGEDB's key are one rendering of
     the sender MAC. A value the store holds is compared in place with
     the one learning would write, so a host already known renders only
     its two keys; a value is rendered only to be written. *)
  let host_key = Values.Host.key mac in
  let arp_key = Values.Arp.key ip in
  let write cache key ~held value =
    let op = if held then Event.Update else Event.Create in
    [ Types.Cache_write { cache; op; key; value } ]
  in
  let host =
    match read t Names.hostdb host_key with
    | Some v when Values.Host.value_is v ~dpid ~port ~ip -> []
    | held ->
        write Names.hostdb host_key ~held:(Option.is_some held)
          (Values.Host.value ~dpid ~port ~ip)
  in
  let arp =
    match read t Names.arpdb arp_key with
    | Some v when Values.Arp.value_is v mac -> []
    | held -> write Names.arpdb arp_key ~held:(Option.is_some held) host_key
  in
  let edge =
    match read t Names.edgedb host_key with
    | Some v when Values.Edge.value_is v ~dpid ~port -> []
    | held ->
        write Names.edgedb host_key ~held:(Option.is_some held)
          (Values.Edge.value ~dpid ~port)
  in
  host @ arp @ edge

let flow_rule_actions t ~dpid ~rule ~priority ~idle ~out_port ~buffer_id =
  let fm =
    Of_message.flow_mod ~priority ~idle_timeout:idle ~buffer_id rule
      [ Of_action.Output out_port ]
  in
  let key = Values.Flow.Memo.key t.flow_memo dpid rule ~priority in
  let value = Values.Flow.Memo.value t.flow_memo fm in
  let cache_actions =
    match read t Names.flowsdb key with
    | Some v when v = value -> []
    | Some _ ->
        [ Types.Cache_write
            { cache = Names.flowsdb; op = Event.Update; key; value } ]
    | None ->
        [ Types.Cache_write
            { cache = Names.flowsdb; op = Event.Create; key; value } ]
  in
  cache_actions
  @ [ Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ]

let plan_path_install t ~src_dpid ~in_port ~buffer_id frame
    (dst_dpid, dst_port) =
  let out = first_hop t src_dpid dst_dpid in
  if out < 0 then plan_flood t src_dpid ~in_port ~buffer_id frame
  else
    (* Hop-by-hop reactive forwarding, as ONOS's reactive app does:
       install a rule only at the switch that raised the PACKET_IN;
       the packet then misses at the next switch, whose own master
       installs the next hop, and so on. *)
    let rule =
      match t.profile.Profile.forwarding with
      | Profile.Reactive_exact -> Of_match.exact_of_frame ~in_port frame
      | Profile.Reactive_src_dst ->
          Of_match.l2_pair ~src:frame.Frame.dl_src ~dst:frame.Frame.dl_dst
      | Profile.Proactive_dst -> Of_match.l2_dst ~dst:frame.Frame.dl_dst
    in
    let idle = t.profile.Profile.flow_idle_timeout in
    let out_port =
      if Of_types.Dpid.equal src_dpid dst_dpid then
        dst_port (* destination host on this switch *)
      else if t.profile.Profile.ecmp then
        (* Load-balance across equal-cost next hops: an
           intentionally non-deterministic application. *)
        match next_hop_choices t src_dpid dst_dpid with
        | [] -> out
        | choices -> fst (Rng.choice t.rng (Array.of_list choices))
      else out
    in
    flow_rule_actions t ~dpid:src_dpid ~rule ~priority:100 ~idle ~out_port
      ~buffer_id

let plan_packet_in t ~as_id dpid (pi : Of_message.packet_in) =
  let frame = pi.frame in
  match frame.Frame.payload with
  | Frame.Lldp lldp ->
      (* Link discovery: the probe was emitted at (chassis, port) and
         heard at (dpid, in_port). Only the link's liveness master
         writes the link entry (the ONOS election rule). *)
      let remote = Of_types.Dpid.of_int64 lldp.Jury_packet.Lldp.chassis_id in
      let remote_port = lldp.Jury_packet.Lldp.port_id in
      if liveness_master_for_link t remote dpid = Some as_id then begin
        let key = Values.Link.key (remote, remote_port) (dpid, pi.in_port) in
        let value = Values.Link.value_up in
        match read t Names.linksdb key with
        | Some v when v = value -> []
        | Some _ ->
            [ Types.Cache_write
                { cache = Names.linksdb; op = Event.Update; key; value } ]
        | None ->
            [ Types.Cache_write
                { cache = Names.linksdb; op = Event.Create; key; value } ]
      end
      else []
  | Frame.Arp arp ->
      (* Hosts are only learned on edge ports: a flooded ARP copy
         arriving over an inter-switch link must not move the host's
         attachment point. *)
      let learn =
        if List.mem pi.in_port (link_ports t dpid) then []
        else
          learn_host_actions t dpid ~port:pi.in_port ~mac:arp.Frame.sha
            ~ip:arp.Frame.spa
      in
      let forward =
        match arp.Frame.op with
        | Frame.Request ->
            plan_flood t dpid ~in_port:pi.in_port ~buffer_id:pi.buffer_id frame
        | Frame.Reply -> (
            (* Unicast reply: forward toward the target if known. *)
            match host t frame.Frame.dl_dst with
            | ddpid, dport when Of_types.Dpid.equal ddpid dpid ->
                [ Types.Network_send
                    { dpid;
                      payload =
                        Of_message.Packet_out
                          { po_buffer_id = pi.buffer_id;
                            po_in_port = pi.in_port;
                            po_actions = [ Of_action.Output dport ];
                            po_frame =
                              (match pi.buffer_id with
                              | None -> Some frame
                              | Some _ -> None) } } ]
            | _ ->
                plan_flood t dpid ~in_port:pi.in_port ~buffer_id:pi.buffer_id
                  frame
            | exception Not_found ->
                plan_flood t dpid ~in_port:pi.in_port ~buffer_id:pi.buffer_id
                  frame)
      in
      learn @ forward
  | Frame.Ipv4 _ -> (
      if Jury_packet.Addr.Mac.is_broadcast frame.Frame.dl_dst then
        plan_flood t dpid ~in_port:pi.in_port ~buffer_id:pi.buffer_id frame
      else
        match host t frame.Frame.dl_dst with
        | dst ->
            plan_path_install t ~src_dpid:dpid ~in_port:pi.in_port
              ~buffer_id:pi.buffer_id frame dst
        | exception Not_found ->
            plan_flood t dpid ~in_port:pi.in_port ~buffer_id:pi.buffer_id frame)
  | Frame.Raw _ -> []

let plan_port_status t dpid (ps : Of_message.port_status) =
  if ps.ps_link_up then []
  else begin
    let dead_links =
      entries t Names.linksdb
      |> List.filter (fun (k, _) -> Values.Link.involves k dpid ps.ps_port)
      |> List.map (fun (k, _) ->
             Types.Cache_write
               { cache = Names.linksdb;
                 op = Event.Delete;
                 key = k;
                 value = "" })
    in
    let dead_hosts =
      entries t Names.hostdb
      |> List.filter_map (fun (k, v) ->
             match Values.Host.parse v with
             | Some (d, p, _)
               when Of_types.Dpid.equal d dpid && p = ps.ps_port ->
                 Some
                   [ Types.Cache_write
                       { cache = Names.hostdb;
                         op = Event.Delete;
                         key = k;
                         value = "" };
                     Types.Cache_write
                       { cache = Names.edgedb;
                         op = Event.Delete;
                         key = k;
                         value = "" } ]
             | _ -> None)
      |> List.concat
    in
    dead_links @ dead_hosts
  end

let plan_switch_join t ~as_id dpid (fr : Of_message.features_reply) =
  let master = Option.value (master_of t dpid) ~default:as_id in
  let key = Values.Switch.key dpid in
  let value = Values.Switch.value_connected ~master ~ports:fr.ports in
  match read t Names.switchdb key with
  | Some v when v = value -> []
  | Some _ ->
      [ Types.Cache_write
          { cache = Names.switchdb; op = Event.Update; key; value } ]
  | None ->
      [ Types.Cache_write
          { cache = Names.switchdb; op = Event.Create; key; value } ]

let plan_rest t = function
  | Types.Install_flow { dpid; flow } ->
      let key =
        Values.Flow.Memo.key t.flow_memo dpid flow.Of_message.fm_match
          ~priority:flow.Of_message.priority
      in
      let value = Values.Flow.Memo.value t.flow_memo flow in
      let op =
        match read t Names.flowsdb key with
        | Some _ -> Event.Update
        | None -> Event.Create
      in
      [ Types.Cache_write { cache = Names.flowsdb; op; key; value };
        Types.Network_send { dpid; payload = Of_message.Flow_mod flow } ]
  | Types.Delete_flow { dpid; fm_match } ->
      let deletes =
        entries t Names.flowsdb
        |> List.filter_map (fun (k, v) ->
               match (Values.Flow.dpid_of_key k, Values.Flow.parse v) with
               | Some d, Some fm
                 when Of_types.Dpid.equal d dpid
                      && Of_match.equal fm.Of_message.fm_match fm_match ->
                   Some
                     (Types.Cache_write
                        { cache = Names.flowsdb;
                          op = Event.Delete;
                          key = k;
                          value = "" })
               | _ -> None)
      in
      let del_fm =
        Of_message.flow_mod ~command:Of_message.Delete fm_match []
      in
      deletes
      @ [ Types.Network_send { dpid; payload = Of_message.Flow_mod del_fm } ]
  | Types.Query_flows _ -> []

let plan_internal t = function
  | Types.Emit_lldp ->
      mastered_switches t
      |> List.concat_map (fun dpid ->
             switch_ports t dpid
             |> List.map (fun port ->
                    let lldp =
                      Jury_packet.Lldp.make
                        ~system_name:(Printf.sprintf "ctrl-%d" t.id)
                        ~chassis_id:(Of_types.Dpid.to_int64 dpid)
                        ~port_id:port ~ttl:120 ()
                    in
                    let frame =
                      Frame.lldp_frame
                        ~src:(Jury_packet.Addr.Mac.of_host_index 0xFFFF)
                        lldp
                    in
                    Types.Network_send
                      { dpid;
                        payload =
                          Of_message.Packet_out
                            { po_buffer_id = None;
                              po_in_port = Of_types.Port.none;
                              po_actions = [ Of_action.Output port ];
                              po_frame = Some frame } }))
  | Types.Proactive actions -> actions

(* Vanilla ODL's proactive forwarding (§VI-C): as soon as a host is
   discovered, install destination-based rules toward it at every
   mastered switch — before any traffic flows. *)
let plan_proactive_host_rules t ~mac ~host_dpid ~host_port =
  let rule = Of_match.l2_dst ~dst:mac in
  mastered_switches t
  |> List.filter_map (fun dpid ->
         let out_port =
           if Of_types.Dpid.equal dpid host_dpid then Some host_port
           else
             match next_hop_choices t dpid host_dpid with
             | (port, _) :: _ -> Some port
             | [] -> None
         in
         match out_port with
         | None -> None
         | Some out_port ->
             let fm =
               Of_message.flow_mod ~priority:50
                 ~idle_timeout:t.profile.Profile.flow_idle_timeout rule
                 [ Of_action.Output out_port ]
             in
             let key =
               Values.Flow.Memo.key t.flow_memo dpid rule ~priority:50
             in
             let value = Values.Flow.Memo.value t.flow_memo fm in
             if read t Names.flowsdb key = Some value then None
             else
               Some
                 [ Types.Cache_write
                     { cache = Names.flowsdb; op = Event.Create; key; value };
                   Types.Network_send
                     { dpid; payload = Of_message.Flow_mod fm } ])
  |> List.concat

let plan_flow_removed t dpid (fr : Of_message.flow_removed) =
  let key =
    Values.Flow.Memo.key t.flow_memo dpid fr.Of_message.fr_match
      ~priority:fr.Of_message.fr_priority
  in
  match read t Names.flowsdb key with
  | None -> []
  | Some _ ->
      [ Types.Cache_write
          { cache = Names.flowsdb; op = Event.Delete; key; value = "" } ]

let plan_as t ~as_id (trigger : Types.trigger) =
  match trigger with
  | Types.Packet_in (dpid, pi) -> plan_packet_in t ~as_id dpid pi
  | Types.Port_status (dpid, ps) -> plan_port_status t dpid ps
  | Types.Switch_join (dpid, fr) -> plan_switch_join t ~as_id dpid fr
  | Types.Flow_removed (dpid, fr) -> plan_flow_removed t dpid fr
  | Types.Rest req -> plan_rest t req
  | Types.Internal { work; _ } -> plan_internal t work

let plan t trigger = plan_as t ~as_id:t.id trigger

let shadow_execute t ?as_id trigger =
  let as_id = Option.value as_id ~default:t.id in
  let actions = plan_as t ~as_id trigger in
  match t.mutator with None -> actions | Some m -> m trigger actions

(* --- Application --- *)

(* Applies one action; [delay] is the store-synchronisation stall the
   response has accumulated so far (a strong write must commit before
   the controller sends the ensuing network messages), and the updated
   accumulation is returned. *)
let apply_action t taint ~delay (action : Types.action) =
  match action with
  | Types.Cache_write { cache; op; key; value } -> (
      (* Acquire the coordination channel *before* the write so that
         event delivery at the peers lines up with the channel
         clearing; the stall is the round (ODL/Infinispan) or the
         synchronous flow-rule backup (ONOS/Hazelcast). *)
      let stall =
        match t.profile.Profile.consistency with
        | Fabric.Strong -> Fabric.strong_acquire t.fabric
        | Fabric.Eventual ->
            Profile.write_sync_cost t.profile ~nodes:(Fabric.nodes t.fabric)
              ~cache ~op
      in
      match
        Fabric.write t.fabric ~node:t.id ?taint ~cache op ~key ~value
      with
      | Ok _ ->
          if Time.(stall > Time.zero) then Pipeline.add_load t.pipeline stall;
          t.observer.on_applied taint action;
          Time.add delay stall
      | Error e ->
          t.observer.on_write_failed taint action e;
          delay)
  | Types.Network_send { dpid; payload } ->
      (if masters t dpid then
         (if Time.(delay > Time.zero) then
            Engine.schedule_on t.engine t.footprint ~after:delay (fun () ->
                send_network t taint dpid payload)
          else send_network t taint dpid payload)
       else
         (* Remote switch: the directive travels through the shared
            store (the FLOWSDB write delegates to the remote master);
            non-flow messages to remote switches are not supported and
            are dropped, as in the real controllers. *)
         match payload with
         | Of_message.Flow_mod _ -> () (* cache write already delegated *)
         | _ -> ());
      delay

let process t taint trigger =
  (* JURY's controller module stamps internal triggers with a taint of
     their own so every ensuing cache event is attributable. *)
  let taint =
    match taint with
    | Some _ -> taint
    | None ->
        t.next_internal <- t.next_internal + 1;
        Some (Types.Taint.internal_trigger ~origin:t.id ~seq:t.next_internal)
  in
  let actions = shadow_execute t trigger in
  t.observer.on_response taint trigger actions;
  ignore
    (List.fold_left
       (fun delay action -> apply_action t taint ~delay action)
       Time.zero actions)

let submit t ?taint trigger =
  (* Tainted submissions get a pipeline-service span (queue wait +
     service time per trigger); the span is closed by the pipeline. *)
  let span =
    match taint with
    | None -> None
    | Some taint ->
        let tr = Engine.trace t.engine in
        if Jury_obs.Trace.enabled tr then
          Jury_obs.Trace.open_child tr ~t_ns:(Engine.now_ns t.engine)
            ~taint:(Types.Taint.to_string taint)
            ~phase:Jury_obs.Trace.Pipeline_service ~node:t.id
            [ ("trigger", Types.trigger_name trigger); ("role", "primary") ]
        else None
  in
  Pipeline.submit ?span t.pipeline (fun () -> process t taint trigger)

let run_internal t ~app work =
  submit t (Types.Internal { app; work })

let () =
  proactive_host_rules_hook :=
    fun t (ev : Event.t) ->
      match
        ( Jury_packet.Addr.Mac.of_string ev.Event.key,
          Values.Host.parse ev.Event.value )
      with
      | mac, Some (host_dpid, host_port, _) ->
          Engine.schedule_on t.engine t.footprint ~after:(Time.us 50)
            (fun () ->
              match plan_proactive_host_rules t ~mac ~host_dpid ~host_port with
              | [] -> ()
              | actions ->
                  run_internal t ~app:"odl-proactive-fwd"
                    (Types.Proactive actions))
      | _, None -> ()
      | exception Invalid_argument _ -> ()

let start_discovery t =
  ignore
    (Engine.every t.engine ~period:t.profile.Profile.lldp_period
       ~jitter:t.profile.Profile.lldp_jitter
       ~footprint:t.footprint
       (fun () -> run_internal t ~app:"lldp-discovery" Types.Emit_lldp))

let response_latency_sample t =
  let util = Pipeline.utilization_hint t.pipeline in
  (* Response latency inflates with pipeline load (GC pressure, thread
     contention), clamped: queueing delay is modelled separately by the
     pipeline itself. *)
  let median =
    t.profile.Profile.response_jitter_median_us
    *. (1. +. (Float.min 24. util /. 8.))
  in
  let jitter =
    Rng.lognormal t.rng ~mu:(log median)
      ~sigma:t.profile.Profile.response_jitter_sigma
  in
  Time.add t.profile.Profile.response_latency_base (Time.of_float_us jitter)

let sample_response_fate t =
  if t.omit_probability > 0. && Rng.bernoulli t.rng t.omit_probability then
    `Omit
  else `Respond (Time.add (response_latency_sample t) t.response_delay)
