open Jury_sim
module Types = Jury_controller.Types
module Taint = Types.Taint
module Cluster = Jury_controller.Cluster
module Controller = Jury_controller.Controller
module Pipeline = Jury_controller.Pipeline
module Fabric = Jury_store.Fabric
module Event = Jury_store.Event
module Of_message = Jury_openflow.Of_message
module Of_wire = Jury_openflow.Of_wire

type config = {
  k : int;
  validator : Validator.config;
  random_secondaries : bool;
  deterministic_latencies : bool;
  encapsulation : bool;
  channel : Channel.profile;
  batch_window : Time.t option;
  election : Cluster.election_config option;
}

(* The out-of-band links: one way to the validator and from the
   interception point to a secondary, each plus an exponential jitter
   of the given mean unless [deterministic_latencies]. *)
let validator_latency = Time.us 120
let validator_jitter_us = 60.
let replication_latency = Time.us 200
let replication_jitter_us = 80.

(* Mastership-status chatter a secondary sends its trigger's primary
   (Hazelcast, §VII-B2): pipeline time the primary pays, and bytes. *)
let chatter_cost = Time.us 13
let chatter_size = 96

(* One plan per trigger. The k+1 executions of a trigger usually agree,
   and the validator keeps every one until it decides, so each reporter
   looks its plan up here first: a plan equal to the one its trigger's
   slot holds is reported as that list, which the executions then share.
   The table is direct-mapped on the taint's hash. A taint whose slot
   holds another taint claims it; an unequal plan for the same taint
   keeps its own list. The answer is always [=] to the plan given, so
   sharing changes no output, and a lookup allocates nothing. *)
module Plans = struct
  let slots = 256

  type t = { taints : Taint.t array; plans : Types.action list array }

  let create () =
    (* No trigger is minted with a negative serial. Made here, not at
       module initialisation, so that a process that installs no
       deployment allocates nothing for it. *)
    let vacant = Taint.internal_trigger ~origin:(-1) ~seq:(-1) in
    { taints = Array.make slots vacant; plans = Array.make slots [] }

  let share t taint plan =
    let i = Taint.hash taint land (slots - 1) in
    if Taint.equal t.taints.(i) taint then
      let held = t.plans.(i) in
      if held == plan || held = plan then held else plan
    else begin
      t.taints.(i) <- taint;
      t.plans.(i) <- plan;
      plan
    end
end

type node_module = {
  mutable snapshot : Snapshot.t;
  shadow : Pipeline.t;
}

(* What the replicator must remember to honour a retransmission request:
   enough to rebuild the replica copy it originally put on the wire. *)
type inflight = {
  inf_primary : int;
  inf_trigger : Types.trigger;
  inf_wire_size : int;
  inf_decap : bool;
}

type t = {
  cluster : Cluster.t;
  cfg : config;
  engine : Engine.t;
  validator : Validator.t;
  rng : Rng.t;
  nodes : node_module array;
  ack_peers : int list array;
      (* origin → the peers that ack its cache events, built once *)
  replica_links : Channel.t array;
      (* interception point → secondary i, one per node *)
  validator_links : Channel.t array;
      (* replica i → out-of-band validator *)
  plans : Plans.t;  (* one per deployment: [Pool] runs several *)
  inflight : inflight Taint.Table.t;
      (* taint → what a retransmission or a failover re-drive needs,
         including the current primary; kept only when retransmission
         or election is on *)
  mutable batch_buf : Response.t list;  (* newest first *)
  mutable batch_flush : bool;
      (* whether a flush is scheduled: armed lazily on the first
         buffered response so an idle engine still drains; [false]
         whenever the buffer is empty *)
  mutable serial : int;
  mutable raw_serial : int;
  mutable replication_bytes : int;
  mutable validator_bytes : int;
  mutable chatter_bytes_total : int;
  mutable replicated_triggers : int;
  mutable decap_samples : float list;
}

let validator t = t.validator
let cluster t = t.cluster
let cfg t = t.cfg

let peers_of ~n ~k origin =
  List.init (min k (n - 1)) (fun i -> (origin + i + 1) mod n)

let ack_peers t origin = t.ack_peers.(origin)

(* Bytes a response adds to JURY's own out-of-band traffic. Cache
   updates cost nothing here: the validator hosts a cache instance and
   sees them through the data platform's own replication ("the k+1
   cache updates ... require no explicit propagation", SIV-C) — those
   bytes are part of the store's accounting. Responses carry compact
   digests, not full payloads. *)
let response_wire_size (r : Response.t) =
  32
  +
  match r.body with
  | Response.Execution { actions; _ } -> 16 + (20 * List.length actions)
  | Response.Cache_update _ -> 0
  | Response.Network_write _ -> 56
  | Response.Write_failure { reason; _ } -> String.length reason

let trace_enabled t = Jury_obs.Trace.enabled (Engine.trace t.engine)

let trace_channel_event t ~taint ~phase ~node ~link event =
  if trace_enabled t then
    Jury_obs.Trace.point (Engine.trace t.engine)
      ~t_ns:(Engine.now_ns t.engine)
      ~taint:(Taint.to_string taint) ~phase ~node
      [ ("channel", Channel.name link); ("event", event) ]

(* A response has come off its out-of-band link. Per-event mode hands
   it straight to the validator (the seed's path, byte-identical);
   batched mode buffers it and flushes the accumulated tick as one
   per-shard batch per [batch_window]. *)
let ingest t (r : Response.t) =
  match t.cfg.batch_window with
  | None -> Validator.deliver t.validator r
  | Some window ->
      t.batch_buf <- r :: t.batch_buf;
      if not t.batch_flush then begin
        t.batch_flush <- true;
        Engine.schedule t.engine ~after:window (fun () ->
            t.batch_flush <- false;
            let batch = List.rev t.batch_buf in
            t.batch_buf <- [];
            Validator.deliver_batch t.validator batch)
      end

let send_to_validator t ~delay (r : Response.t) =
  t.validator_bytes <- t.validator_bytes + response_wire_size r;
  let link = t.validator_links.(r.Response.controller) in
  match
    Channel.send link
      ~footprint:
        (Validator.trigger_footprint t.cfg.validator r.Response.taint)
      ~delay
      (fun () -> ingest t r)
  with
  | `Delivered -> ()
  | `Dropped ->
      trace_channel_event t ~taint:r.Response.taint
        ~phase:Jury_obs.Trace.Validate ~node:r.Response.controller ~link "drop"
  | `Duplicated ->
      trace_channel_event t ~taint:r.Response.taint
        ~phase:Jury_obs.Trace.Validate ~node:r.Response.controller ~link
        "duplicate"

(* Deterministic latencies must draw nothing: such a deployment leaves
   the replicator's RNG stream untouched so equal-timestamp events
   cannot interfere through it — the schedule explorer's dependence
   relation assumes as much. *)
let jittered t base jitter_us =
  if t.cfg.deterministic_latencies then base
  else Time.add base (Time.of_float_us (Rng.exponential t.rng jitter_us))

let validator_link_delay t =
  jittered t validator_latency validator_jitter_us

let make_response t ~node ~taint body =
  { Response.controller = node;
    taint;
    snapshot = t.nodes.(node).snapshot;
    sent_at = Engine.now t.engine;
    term = Cluster.current_term t.cluster;
    body }

(* --- Trace emission: the replicator is where a trigger's causal tree
   is rooted and fanned out, so it owns the root/replicate spans. --- *)

let trace_root t ~taint ~node ~channel trigger_name =
  if trace_enabled t then
    ignore
      (Jury_obs.Trace.open_root (Engine.trace t.engine)
         ~t_ns:(Engine.now_ns t.engine)
         ~taint:(Taint.to_string taint) ~node
         [ ("trigger", trigger_name);
           ("channel", channel);
           ("primary", string_of_int node) ])

let trace_replica_span t ~taint ~secondary ~wire_size =
  if trace_enabled t then
    Jury_obs.Trace.open_child (Engine.trace t.engine)
      ~t_ns:(Engine.now_ns t.engine)
      ~taint:(Taint.to_string taint)
      ~phase:Jury_obs.Trace.Replicate ~node:secondary
      [ ("wire_bytes", string_of_int wire_size) ]
  else None

let trace_close_span t span attrs =
  match span with
  | None -> ()
  | Some span ->
      Jury_obs.Trace.close_span (Engine.trace t.engine)
        ~t_ns:(Engine.now_ns t.engine) span attrs

let trace_net_write t ~taint ~node ~dpid =
  if trace_enabled t then
    Jury_obs.Trace.point (Engine.trace t.engine)
      ~t_ns:(Engine.now_ns t.engine)
      ~taint:(Taint.to_string taint)
      ~phase:Jury_obs.Trace.Net_write ~node
      [ ("dpid", Jury_openflow.Of_types.Dpid.to_string dpid);
        ("msg", "FLOW_MOD") ]

(* --- Per-node controller module: cache hooks + egress interception --- *)

let install_node_module t node =
  let ctrl = Cluster.controller t.cluster node in
  (* Cache manager hook: maintain the node snapshot, relay local writes
     and ack the peers we are responsible for. *)
  Fabric.subscribe (Cluster.fabric t.cluster) ~node (fun ~local ev ->
      t.nodes.(node).snapshot <- Snapshot.observe t.nodes.(node).snapshot ev;
      let relay =
        if local then ev.Event.origin = node
        else List.mem node (ack_peers t ev.Event.origin)
      in
      match (relay, ev.Event.taint) with
      | true, Some taint ->
          send_to_validator t ~delay:(validator_link_delay t)
            (make_response t ~node ~taint (Response.Cache_update ev))
      | _ -> ());
  (* Controller module: executions, egress interception, write
     failures. *)
  Controller.set_observer ctrl
    { Controller.on_response =
        (fun taint trigger actions ->
          ignore trigger;
          match taint with
          | None -> ()
          | Some taint ->
              let is_mine =
                (* A failover may have moved the trigger's attribution
                   to a new master; the in-flight record's primary wins
                   over the primary minted into the taint. *)
                match Taint.Table.find_opt t.inflight taint with
                | Some inf -> inf.inf_primary = node
                | None -> (
                    match Taint.primary_of taint with
                    | Some p -> p = node
                    | None -> true (* internal: the origin reports *))
              in
              if is_mine then
                match Controller.sample_response_fate ctrl with
                | `Omit -> ()
                | `Respond latency ->
                    (* Only replicated triggers have plans to share. *)
                    let actions =
                      if Taint.is_external taint then
                        Plans.share t.plans taint actions
                      else actions
                    in
                    send_to_validator t ~delay:latency
                      (make_response t ~node ~taint
                         (Response.Execution { role = `Primary; actions })));
      on_applied =
        (fun taint action ->
          match action with
          | Types.Network_send { dpid; payload = Of_message.Flow_mod flow } ->
              (* OVS-level egress interception: reliable, fixed-latency
                 relay regardless of controller health. A FLOW_MOD with
                 no taint means the controller bypassed its processing
                 pipeline entirely (§II-A.3: network side effect without
                 a cache write is itself suspect) — the interceptor
                 mints a taint so the validator gets its own record. *)
              let taint =
                match taint with
                | Some taint -> taint
                | None ->
                    t.raw_serial <- t.raw_serial + 1;
                    Taint.internal_trigger ~origin:node
                      ~seq:(1_000_000 + t.raw_serial)
              in
              trace_net_write t ~taint ~node ~dpid;
              send_to_validator t ~delay:(validator_link_delay t)
                (make_response t ~node ~taint
                   (Response.Network_write { dpid; flow }))
          | _ -> ());
      on_write_failed =
        (fun taint action reason ->
          match taint with
          | None -> ()
          | Some taint ->
              send_to_validator t ~delay:(validator_link_delay t)
                (make_response t ~node ~taint
                   (Response.Write_failure { action; reason }))) }

(* --- Replicated execution at a secondary --- *)

let run_shadow t ~secondary ~primary ~taint trigger =
  let ctrl = Cluster.controller t.cluster secondary in
  let span =
    if trace_enabled t then
      Jury_obs.Trace.open_child (Engine.trace t.engine)
        ~t_ns:(Engine.now_ns t.engine)
        ~taint:(Taint.to_string taint)
        ~phase:Jury_obs.Trace.Pipeline_service ~node:secondary
        [ ("role", "secondary"); ("as", string_of_int primary) ]
    else None
  in
  Pipeline.submit ?span t.nodes.(secondary).shadow (fun () ->
      (* Mastership-status chatter from the secondary loads the
         primary's pipeline (the <11% of Fig. 4h). *)
      Pipeline.add_load
        (Controller.pipeline (Cluster.controller t.cluster primary))
        chatter_cost;
      t.chatter_bytes_total <- t.chatter_bytes_total + chatter_size;
      let actions = Controller.shadow_execute ctrl ~as_id:primary trigger in
      (* Standalone (Ryu-style) instances share no store: validation
         replicates the *action stream* instead. Each secondary applies
         its own planned cache writes, untainted, to its own local
         tables — so its view keeps tracking the stream it validates —
         while network sends stay simulated (only the primary touches
         the data plane). *)
      if not (Cluster.profile t.cluster).Jury_controller.Profile.clustered
      then
        List.iter
          (fun a ->
            match a with
            | Types.Cache_write { cache; op; key; value } ->
                ignore
                  (Fabric.write
                     (Cluster.fabric t.cluster)
                     ~node:secondary ~cache op ~key ~value)
            | Types.Network_send _ -> ())
          actions;
      match Controller.sample_response_fate ctrl with
      | `Omit -> ()
      | `Respond latency ->
          let actions = Plans.share t.plans taint actions in
          send_to_validator t ~delay:latency
            (make_response t ~node:secondary ~taint
               (Response.Execution { role = `Secondary; actions })))

let pick_secondaries t ~primary =
  let n = Cluster.nodes t.cluster in
  let k = min t.cfg.k (n - 1) in
  if t.cfg.random_secondaries then
    let others = List.filter (fun i -> i <> primary) (List.init n Fun.id) in
    Rng.sample_without_replacement t.rng k others
  else ack_peers t primary

(* Closes a replica hop's span at most once. With no span open
   (tracing off, or a retransmission) it is a static function, so the
   hop allocates no flag or closure for it. *)
let no_span (_ : (string * string) list) = ()

let span_closer t = function
  | None -> no_span
  | Some _ as rspan ->
      let closed = ref false in
      fun attrs ->
        if not !closed then begin
          closed := true;
          trace_close_span t rspan attrs
        end

(* One replica copy on the wire towards [secondary]. The span close is
   idempotent: a duplicated delivery runs the callback twice (and the
   shadow executes twice — the validator deduplicates), but the causal
   span closes once, at the first arrival. *)
let send_replica t ~secondary ~primary ~taint ~(decap : bool) ~rspan trigger =
  let delay = jittered t replication_latency replication_jitter_us in
  (* Arrival submits to the secondary's shadow pipeline and (chatter)
     loads the primary's; with decapsulation it also draws the
     replicator's shared RNG, which only opaque declares honestly. *)
  let footprint =
    if decap then Footprint.opaque
    else
      Footprint.two (Footprint.controller secondary)
        (Footprint.controller primary)
  in
  let close_span = span_closer t rspan in
  let link = t.replica_links.(secondary) in
  let status =
    Channel.send link ~footprint ~delay (fun () ->
        if decap then begin
          (* Strip the doubly-encapsulated PACKET_IN (Fig. 4i). *)
          let ctrl = Cluster.controller t.cluster secondary in
          let profile = Controller.profile ctrl in
          let cost_us =
            Rng.lognormal t.rng
              ~mu:
                (log
                   (Float.max 1.
                      profile
                        .Jury_controller.Profile.decapsulation_cost_median_us))
              ~sigma:0.45
          in
          t.decap_samples <- cost_us :: t.decap_samples;
          Engine.schedule t.engine ~after:(Time.of_float_us cost_us)
            (fun () ->
              (* [no_span] would drop the attribute unread. *)
              if close_span != no_span then
                close_span [ ("decap_us", Printf.sprintf "%.1f" cost_us) ];
              run_shadow t ~secondary ~primary ~taint trigger)
        end
        else begin
          close_span [];
          run_shadow t ~secondary ~primary ~taint trigger
        end)
  in
  match status with
  | `Delivered -> ()
  | `Dropped ->
      close_span [ ("dropped", "true") ];
      trace_channel_event t ~taint ~phase:Jury_obs.Trace.Replicate
        ~node:secondary ~link "drop"
  | `Duplicated ->
      trace_channel_event t ~taint ~phase:Jury_obs.Trace.Replicate
        ~node:secondary ~link "duplicate"

let replicate_trigger t ~primary ~taint ~wire_size
    ~(decap : bool) trigger =
  let secondaries = pick_secondaries t ~primary in
  Validator.register_external t.validator ~taint ~at:(Engine.now t.engine)
    ~primary ~secondaries;
  t.replicated_triggers <- t.replicated_triggers + 1;
  (* The in-flight store also backs failover re-attribution, so it is
     kept whenever either consumer exists. *)
  if t.cfg.validator.retransmit <> None || t.cfg.election <> None then
    Taint.Table.replace t.inflight taint
      { inf_primary = primary;
        inf_trigger = trigger;
        inf_wire_size = wire_size;
        inf_decap = decap };
  List.iter
    (fun secondary ->
      t.replication_bytes <- t.replication_bytes + wire_size;
      let rspan = trace_replica_span t ~taint ~secondary ~wire_size in
      send_replica t ~secondary ~primary ~taint ~decap ~rspan trigger)
    secondaries

(* The validator noticed a straggling secondary: put a fresh replica
   copy of the stored trigger on the (still lossy) wire. *)
let handle_retransmit t taint ~secondary =
  match Taint.Table.find_opt t.inflight taint with
  | None -> ()
  | Some inf ->
      t.replication_bytes <- t.replication_bytes + inf.inf_wire_size;
      Channel.note_retransmit t.replica_links.(secondary);
      trace_channel_event t ~taint ~phase:Jury_obs.Trace.Replicate
        ~node:secondary ~link:t.replica_links.(secondary) "retransmit";
      send_replica t ~secondary ~primary:inf.inf_primary ~taint
        ~decap:inf.inf_decap ~rspan:None inf.inf_trigger

(* A leadership change: every undecided in-flight trigger whose primary
   was the failed node is re-attributed to its new master (the switch's
   post-failover master for southbound triggers, the new leader for
   northbound ones) and re-driven there with the SAME taint after one
   replication-channel hop — so the validator judges the new master's
   responses under the new term instead of timing the trigger out
   against the dead node. *)
let handle_failover t ~term ~failed ~leader =
  let stale =
    Taint.Table.fold
      (fun taint inf acc ->
        if inf.inf_primary = failed then (taint, inf) :: acc else acc)
      t.inflight []
    (* deterministic re-drive order, independent of hash layout *)
    |> List.sort (fun (a, _) (b, _) -> Taint.compare a b)
  in
  List.iter
    (fun (taint, inf) ->
      let new_primary =
        match inf.inf_trigger with
        | Types.Packet_in (dpid, _)
        | Types.Port_status (dpid, _)
        | Types.Switch_join (dpid, _)
        | Types.Flow_removed (dpid, _) ->
            Cluster.master_of t.cluster dpid
        | Types.Rest _ | Types.Internal _ -> leader
      in
      if
        new_primary <> failed
        && Validator.reattribute t.validator ~taint ~primary:new_primary ~term
      then begin
        Taint.Table.replace t.inflight taint
          { inf with inf_primary = new_primary };
        if trace_enabled t then
          Jury_obs.Trace.point (Engine.trace t.engine)
            ~t_ns:(Engine.now_ns t.engine) ~taint:(Taint.to_string taint)
            ~phase:Jury_obs.Trace.Replicate ~node:new_primary
            [ ("event", "re-drive");
              ("term", string_of_int term);
              ("failed", string_of_int failed) ];
        Engine.schedule_on t.engine
          (Footprint.one (Footprint.controller new_primary))
          ~after:replication_latency
          (fun () ->
            Controller.submit
              (Cluster.controller t.cluster new_primary)
              ~taint inf.inf_trigger)
      end)
    stale

let mint_taint t ~primary =
  t.serial <- t.serial + 1;
  Taint.external_trigger ~primary ~serial:t.serial

(* --- Install --- *)

let install cluster (cfg : config) =
  let engine = Cluster.engine cluster in
  let n = Cluster.nodes cluster in
  let profile = Cluster.profile cluster in
  let clustered = profile.Jury_controller.Profile.clustered in
  let ack_peers = Array.init n (peers_of ~n ~k:cfg.k) in
  let validator_cfg =
    { cfg.validator with
      (* Standalone instances never share state, so their snapshots can
         never be equal across nodes (each digests its own origin/seq
         history): state-aware consensus would excuse everything. The
         standalone mode is therefore always state-blind — the
         cross-instance response vote carries the verdict. *)
      Validator.state_aware = cfg.validator.state_aware && clustered;
      master_lookup = (fun dpid -> Some (Cluster.master_of cluster dpid));
      term_lookup = (fun () -> Cluster.current_term cluster);
      (* Standalone fabrics never replicate, so no peer ack can ever
         arrive — completeness would deadlock waiting for them. *)
      ack_peers_of =
        (if clustered then Array.get ack_peers else fun _ -> []) }
  in
  (* RNG-draw order is load-bearing: the shadow pipelines split the
     engine RNG per node, and the deployment's own split must come
     after all of them (and before the validator) or every seeded
     run's event schedule shifts. Channels draw nothing at creation,
     so they may be built once [rng] exists. *)
  let nodes =
    Array.init n (fun node ->
        { snapshot = Snapshot.pristine;
          shadow =
            (* Replicated execution runs on the controller's spare
               cores (the paper's servers have 12); modelled as a
               4-way-parallel validation pool, i.e. a single server
               at a quarter of the pipeline's service time. Shadow
               completions execute against this replica's state (the
               chatter load on the trigger's primary shifts timings
               only). *)
            Pipeline.create engine
              ~footprint:(Footprint.one (Footprint.controller node))
              (Pipeline.config
                 ~service_sigma:profile.Jury_controller.Profile.service_sigma
                 ~base_service:
                   (Time.div profile.Jury_controller.Profile.base_service 4)
                 ~overload_backlog:(Time.sec 10) ()) })
  in
  let rng = Rng.split (Engine.rng engine) in
  let t =
    { cluster;
      cfg;
      engine;
      validator = Validator.create engine validator_cfg;
      rng;
      ack_peers;
      replica_links =
        Array.init n (fun i ->
            Channel.create engine ~rng
              ~name:(Printf.sprintf "replica/%d" i)
              cfg.channel);
      validator_links =
        Array.init n (fun i ->
            Channel.create engine ~rng
              ~name:(Printf.sprintf "validator/%d" i)
              cfg.channel);
      plans = Plans.create ();
      inflight = Taint.Table.create 256;
      batch_buf = [];
      batch_flush = false;
      nodes;
      serial = 0;
      raw_serial = 0;
      replication_bytes = 0;
      validator_bytes = 0;
      chatter_bytes_total = 0;
      replicated_triggers = 0;
      decap_samples = [] }
  in
  (* The retransmission loop only exists when asked for: registering the
     handler and verdict observer is gated so a default configuration
     keeps the validator byte-for-byte on the seed's event schedule. *)
  if cfg.validator.retransmit <> None then
    Validator.set_retransmit_handler t.validator (fun taint ~secondary ->
        handle_retransmit t taint ~secondary);
  if cfg.validator.retransmit <> None || cfg.election <> None then
    Validator.on_verdict t.validator (fun alarm ->
        Taint.Table.remove t.inflight alarm.Alarm.taint);
  for node = 0 to n - 1 do
    install_node_module t node
  done;
  (* The replicator: southbound interception. *)
  Cluster.set_southbound_hook cluster
    (fun ~dpid:_ ~master ~msg ~trigger ~forward ->
      let taint = mint_taint t ~primary:master in
      trace_root t ~taint ~node:master ~channel:"southbound"
        (Types.trigger_name trigger);
      forward ~taint ();
      let wire_size =
        Of_wire.encoded_size msg
        + (if cfg.encapsulation then Encap.overhead_bytes else 0)
      in
      replicate_trigger t ~primary:master ~taint ~wire_size
        ~decap:cfg.encapsulation trigger);
  (* Northbound interception. *)
  Cluster.set_northbound_hook cluster (fun ~node ~request ~forward ->
      let taint = mint_taint t ~primary:node in
      let trigger = Types.Rest request in
      trace_root t ~taint ~node ~channel:"northbound"
        (Types.trigger_name trigger);
      forward ~taint ();
      (* REST requests are small; 256 bytes covers headers + body. *)
      replicate_trigger t ~primary:node ~taint ~wire_size:256 ~decap:false
        trigger);
  (* Dynamic leadership: start the election timer and subscribe the
     replicator so mid-run master crashes re-attribute in-flight
     triggers instead of timing them out. Strictly opt-in — with
     [election = None] nothing here runs and churn-free deployments
     stay byte-identical to the seed. *)
  (match cfg.election with
  | None -> ()
  | Some ec ->
      Cluster.enable_election cluster ec;
      Cluster.on_leadership_change cluster (fun ~term ~failed ~leader ->
          handle_failover t ~term ~failed ~leader));
  t

(* Crash-and-rejoin recovery: the node's store view is replaced by a
   state transfer from a healthy peer (no events, so the validator sees
   no traffic it would have to account for), its cached topology view is
   invalidated so reads rebuild from the fresh tables, and its node
   snapshot is re-seeded from the source's — the snapshot digests the
   store history the node now holds, not the events it missed. *)
let rejoin_node t ~node =
  let n = Cluster.nodes t.cluster in
  if node < 0 || node >= n then invalid_arg "Deployment.rejoin_node: bad node";
  let fabric = Cluster.fabric t.cluster in
  let alive = Cluster.alive_nodes t.cluster in
  let src =
    List.find_opt
      (fun i ->
        i <> node && List.mem i alive
        && not (Fabric.is_partitioned fabric ~node:i))
      (List.init n Fun.id)
  in
  match src with
  | None -> invalid_arg "Deployment.rejoin_node: no healthy source"
  | Some src ->
      Fabric.set_partitioned fabric ~node false;
      Fabric.resync fabric ~from:src ~node;
      t.nodes.(node).snapshot <- t.nodes.(src).snapshot;
      Controller.invalidate_view (Cluster.controller t.cluster node);
      Cluster.rejoin t.cluster ~node

let replication_bytes t = t.replication_bytes
let validator_bytes t = t.validator_bytes
let chatter_bytes t = t.chatter_bytes_total
let decap_samples_us t = Array.of_list (List.rev t.decap_samples)
let replicated_trigger_count t = t.replicated_triggers

let channel_stats t =
  let of_links links =
    Array.to_list
      (Array.map (fun c -> (Channel.name c, Channel.stats c)) links)
  in
  of_links t.replica_links @ of_links t.validator_links

let channel_totals t =
  Channel.total (List.map snd (channel_stats t))
