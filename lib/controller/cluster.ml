open Jury_sim
open Jury_openflow
module Fabric = Jury_store.Fabric
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Network = Jury_net.Network
module Switch = Jury_net.Switch

type southbound_hook =
  dpid:Of_types.Dpid.t ->
  master:int ->
  msg:Of_message.t ->
  trigger:Types.trigger ->
  forward:(?taint:Types.Taint.t -> ?to_:int -> unit -> unit) ->
  unit

type northbound_hook =
  node:int ->
  request:Types.rest_request ->
  forward:(?taint:Types.Taint.t -> ?to_:int -> unit -> unit) ->
  unit

type election_config = { period : Time.t; timeout_beats : int }

(* Election state exists only once [enable_election] runs: with no
   election the cluster schedules zero extra events and draws no RNG,
   so churn-free deployments stay byte-identical to the seed. *)
type election = {
  e_cfg : election_config;
  mutable term : int;
  mutable leader : int;
  mutable suspected : int list;
      (* nodes a past term already declared dead; cleared by [rejoin] *)
  missed : int array;  (* consecutive failed liveness probes per node *)
  mutable listeners : (term:int -> failed:int -> leader:int -> unit) list;
}

type t = {
  engine : Engine.t;
  profile : Profile.t;
  fabric : Fabric.t;
  network : Network.t;
  controllers : Controller.t array;
  flow_memo : Values.Flow.Memo.t;
  mutable masters : (Of_types.Dpid.t * int) list;
  mutable failed : int list;
  mutable election : election option;
  mutable southbound_hook : southbound_hook;
  mutable northbound_hook : northbound_hook;
}

let engine t = t.engine
let fabric t = t.fabric
let network t = t.network
let profile t = t.profile
let nodes t = Array.length t.controllers
let controllers t = t.controllers
let flow_memo t = t.flow_memo

let controller t i =
  if i < 0 || i >= nodes t then invalid_arg "Cluster.controller: bad id";
  t.controllers.(i)

let master_of t dpid =
  match List.assoc_opt dpid t.masters with
  | Some m -> m
  | None -> 0

let current_term t = match t.election with None -> 0 | Some e -> e.term
let leader t = match t.election with None -> 0 | Some e -> e.leader
let election_enabled t = t.election <> None

let trigger_of_message dpid (msg : Of_message.t) =
  match msg.payload with
  | Of_message.Packet_in pi -> Some (Types.Packet_in (dpid, pi))
  | Of_message.Port_status ps -> Some (Types.Port_status (dpid, ps))
  | Of_message.Features_reply fr -> Some (Types.Switch_join (dpid, fr))
  | Of_message.Flow_removed fr -> Some (Types.Flow_removed (dpid, fr))
  | Of_message.Hello | Of_message.Echo_request _ | Of_message.Echo_reply _
  | Of_message.Features_request | Of_message.Packet_out _
  | Of_message.Flow_mod _ | Of_message.Barrier_request
  | Of_message.Barrier_reply | Of_message.Stats_request _
  | Of_message.Stats_reply _ | Of_message.Error _ ->
      None

(* The interception point: where a tainted trigger is handed to a
   concrete controller. Emitting here rather than in the hook lets the
   trace show exactly when and where the replicator's forward landed,
   including re-targeted deliveries ([?to_]). Callers build [attrs]
   only when [tracing] holds, so an untraced run builds none. *)
let tracing engine = Jury_obs.Trace.enabled (Engine.trace engine)

let trace_intercept engine ~taint ~node attrs =
  Jury_obs.Trace.point (Engine.trace engine) ~t_ns:(Engine.now_ns engine)
    ~taint:(Types.Taint.to_string taint)
    ~phase:Jury_obs.Trace.Intercept ~node attrs

let default_southbound ~dpid ~master ~msg ~trigger
    ~(forward : ?taint:Types.Taint.t -> ?to_:int -> unit -> unit) =
  ignore dpid;
  ignore master;
  ignore msg;
  ignore trigger;
  forward ()

let default_northbound ~node ~request
    ~(forward : ?taint:Types.Taint.t -> ?to_:int -> unit -> unit) =
  ignore node;
  ignore request;
  forward ()

(* One-way latency of every switch-controller control channel. *)
let channel_latency = Time.us 150

let create engine ~profile ~nodes:n ~network =
  if n <= 0 then invalid_arg "Cluster.create: need >= 1 node";
  let fabric =
    Fabric.create engine ~consistency:profile.Profile.consistency ~nodes:n
      ~standalone:(not profile.Profile.clustered)
      ~profile:profile.Profile.store_profile ()
  in
  let flow_memo = Values.Flow.Memo.create () in
  let controllers =
    Array.init n (fun id ->
        Controller.create engine ~id ~profile ~fabric ~flow_memo)
  in
  let t =
    { engine;
      profile;
      fabric;
      network;
      controllers;
      flow_memo;
      masters = [];
      failed = [];
      election = None;
      southbound_hook = default_southbound;
      northbound_hook = default_northbound }
  in
  (* Controller → switch channels. *)
  Array.iter
    (fun ctrl ->
      Controller.set_switch_tx ctrl (fun dpid msg ->
          match Network.switch network dpid with
          | sw ->
              Engine.schedule_on engine (Switch.footprint sw)
                ~after:channel_latency
                (fun () -> Switch.handle_control sw msg)
          | exception Not_found -> ()))
    controllers;
  (* Switch → controller channels, through the southbound hook. *)
  List.iter
    (fun sw ->
      let dpid = Switch.dpid sw in
      Switch.set_control_tx sw (fun msg ->
          (* The footprint names the master as of send time; the
             callback re-resolves it at delivery, so under mastership
             churn the declaration can go stale. Scenarios with
             failover must not rely on it — the explorer targets
             fixed-mastership deployments (see DESIGN.md). *)
          let declared_master = master_of t dpid in
          Engine.schedule_on engine
            (Footprint.one (Footprint.controller declared_master))
            ~after:channel_latency
            (fun () ->
               (* Classified once; a message that is no trigger (echo
                  traffic and the like) reaches no controller. *)
               match trigger_of_message dpid msg with
               | None -> ()
               | Some trigger ->
                   let master = master_of t dpid in
                   let forward ?taint ?to_ () =
                     let target = Option.value to_ ~default:master in
                     (match taint with
                     | Some taint when tracing engine ->
                         trace_intercept engine ~taint ~node:target
                           [ ("channel", "southbound");
                             ("dpid", Of_types.Dpid.to_string dpid);
                             ("msg", Of_message.type_name msg.payload) ]
                     | _ -> ());
                     Controller.submit t.controllers.(target) ?taint trigger
                   in
                   t.southbound_hook ~dpid ~master ~msg ~trigger ~forward)))
    (Network.switches network);
  t

(* Write one mastership entry. Clustered fabrics replicate a single
   node-0 write; a standalone fabric never replicates, so the entry is
   provisioned into every instance's local table — plan_as consults the
   local MASTERDB and divergent copies would wreck the response vote. *)
let publish_master t op dpid m =
  let targets =
    if Fabric.standalone t.fabric then List.init (nodes t) Fun.id else [ 0 ]
  in
  List.iter
    (fun node ->
      match
        Fabric.write t.fabric ~node ~cache:Names.masterdb op
          ~key:(Values.Master.key dpid)
          ~value:(Values.Master.value m)
      with
      | Ok _ -> ()
      | Error e -> Logs.warn (fun f -> f "mastership write failed: %s" e))
    targets

let assign_mastership t =
  let switches = Network.switches t.network in
  let n = nodes t in
  t.masters <-
    (if Fabric.standalone t.fabric then
       (* Standalone mode: the leader instance owns every switch; the
          other instances validate its action stream. *)
       let l = leader t in
       List.map (fun sw -> (Switch.dpid sw, l)) switches
     else List.mapi (fun i sw -> (Switch.dpid sw, i mod n)) switches);
  (* Publish mastership in the store (administrative provisioning). *)
  List.iter (fun (dpid, m) -> publish_master t Event.Create dpid m) t.masters

let start t =
  assign_mastership t;
  List.iter Switch.announce (Network.switches t.network);
  Array.iter Controller.start_discovery t.controllers

let converge t =
  start t;
  let warmup = Time.mul t.profile.Profile.lldp_period 3 in
  Engine.run t.engine ~until:(Time.add (Engine.now t.engine) warmup)

let rest t ~node request =
  if node < 0 || node >= nodes t then invalid_arg "Cluster.rest: bad node";
  let forward ?taint ?to_ () =
    let target = Option.value to_ ~default:node in
    (match taint with
    | Some taint when tracing t.engine ->
        trace_intercept t.engine ~taint ~node:target
          [ ("channel", "northbound");
            ("msg", Types.trigger_name (Types.Rest request)) ]
    | _ -> ());
    Controller.submit t.controllers.(target) ?taint (Types.Rest request)
  in
  t.northbound_hook ~node ~request ~forward

let alive_nodes t =
  List.filter (fun i -> not (List.mem i t.failed)) (List.init (nodes t) Fun.id)

let fail_over t ~node =
  if node < 0 || node >= nodes t then invalid_arg "Cluster.fail_over: bad id";
  if not (List.mem node t.failed) then t.failed <- node :: t.failed;
  let survivors = alive_nodes t in
  if survivors = [] then invalid_arg "Cluster.fail_over: no survivors";
  let surv = Array.of_list survivors in
  let standalone = Fabric.standalone t.fabric in
  let idx = ref 0 in
  let orphaned =
    List.filter (fun (_, m) -> m = node) t.masters |> List.map fst
  in
  t.masters <-
    List.map
      (fun (dpid, m) ->
        if m = node then begin
          (* Standalone: everything moves to the lowest survivor (the
             incoming leader). Clustered: round-robin over survivors. *)
          let m' =
            if standalone then surv.(0)
            else begin
              let m' = surv.(!idx mod Array.length surv) in
              incr idx;
              m'
            end
          in
          (dpid, m')
        end
        else (dpid, m))
      t.masters;
  (* Publish the new mastership and have orphaned switches re-announce
     to their new masters (reconnection handshake). *)
  List.iter
    (fun dpid ->
      let m = master_of t dpid in
      (if standalone then publish_master t Event.Update dpid m
       else
         match
           Fabric.write t.fabric ~node:m ~cache:Names.masterdb Event.Update
             ~key:(Values.Master.key dpid)
             ~value:(Values.Master.value m)
         with
        | Ok _ -> ()
        | Error e -> Logs.warn (fun f -> f "failover mastership write: %s" e));
      match Network.switch t.network dpid with
      | sw ->
          Engine.schedule_on t.engine (Switch.footprint sw)
            ~after:channel_latency
            (fun () -> Switch.announce sw)
      | exception Not_found -> ())
    orphaned

(* The inverse of the bookkeeping half of [fail_over]: the node counts
   as alive again and may be picked by future failovers. Mastership is
   NOT handed back — reclaiming switches is a separate administrative
   act real clusters also treat as such. *)
let rejoin t ~node =
  if node < 0 || node >= nodes t then invalid_arg "Cluster.rejoin: bad id";
  t.failed <- List.filter (fun i -> i <> node) t.failed;
  match t.election with
  | None -> ()
  | Some e ->
      (* The rejoined node is monitorable again — a fresh crash starts
         a fresh suspicion window and a fresh term. *)
      e.suspected <- List.filter (fun i -> i <> node) e.suspected;
      e.missed.(node) <- 0

(* Liveness as the failure detector sees it: an administratively failed
   node, or a replica whose response channel is deterministically
   silent (omit probability saturated — Injector.crash sets exactly
   that). Reading the lever instead of probing keeps the detector off
   every RNG stream. *)
let dead_now t node =
  List.mem node t.failed
  || Controller.omit_probability t.controllers.(node) >= 1.0

let on_leadership_change t f =
  match t.election with
  | None -> invalid_arg "Cluster.on_leadership_change: election not enabled"
  | Some e -> e.listeners <- e.listeners @ [ f ]

let enable_election t cfg =
  if cfg.timeout_beats < 1 then
    invalid_arg "Cluster.enable_election: timeout_beats must be >= 1";
  if Time.compare cfg.period Time.zero <= 0 then
    invalid_arg "Cluster.enable_election: period must be positive";
  match t.election with
  | Some _ -> ()
  | None ->
      let e =
        { e_cfg = cfg;
          term = 1;
          leader = 0;
          suspected = [];
          missed = Array.make (nodes t) 0;
          listeners = [] }
      in
      t.election <- Some e;
      (* One beat per period; a node missing [timeout_beats] consecutive
         beats is declared dead: term++, mastership handed off, leader
         re-elected as the lowest healthy id. Everything is a pure
         function of the schedule — no RNG — so the same seed yields
         the same term sequence. *)
      let rec tick () =
        (match t.election with
        | None -> ()
        | Some e ->
            let n = nodes t in
            for node = 0 to n - 1 do
              if List.mem node e.suspected then ()
              else if dead_now t node then e.missed.(node) <- e.missed.(node) + 1
              else e.missed.(node) <- 0
            done;
            for node = 0 to n - 1 do
              if
                (not (List.mem node e.suspected))
                && e.missed.(node) >= e.e_cfg.timeout_beats
              then begin
                e.suspected <- node :: e.suspected;
                e.term <- e.term + 1;
                if List.exists (fun i -> i <> node) (alive_nodes t) then
                  fail_over t ~node;
                let healthy =
                  List.filter
                    (fun i ->
                      (not (List.mem i e.suspected))
                      && not (List.mem i t.failed))
                    (List.init n Fun.id)
                in
                (match healthy with h :: _ -> e.leader <- h | [] -> ());
                let term = e.term and leader = e.leader in
                List.iter (fun f -> f ~term ~failed:node ~leader) e.listeners
              end
            done);
        Engine.schedule t.engine ~after:cfg.period tick
      in
      Engine.schedule t.engine ~after:cfg.period tick

let query_flows t ~node dpid =
  if node < 0 || node >= nodes t then invalid_arg "Cluster.query_flows: bad id";
  Fabric.entries t.fabric ~node ~cache:Names.flowsdb
  |> List.filter_map (fun (key, value) ->
         match Values.Flow.dpid_of_key key with
         | Some d when Of_types.Dpid.equal d dpid -> Values.Flow.parse value
         | _ -> None)

let set_southbound_hook t h = t.southbound_hook <- h
let set_northbound_hook t h = t.northbound_hook <- h
