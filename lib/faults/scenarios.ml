open Jury_sim
module Types = Jury_controller.Types
module Cluster = Jury_controller.Cluster
module Controller = Jury_controller.Controller
module Profile = Jury_controller.Profile
module Values = Jury_controller.Values
module Network = Jury_net.Network
module Switch = Jury_net.Switch
module Host = Jury_net.Host
module Graph = Jury_topo.Graph
module Names = Jury_store.Cache_names
module Of_match = Jury_openflow.Of_match
module Of_message = Jury_openflow.Of_message
module Of_action = Jury_openflow.Of_action
module Addr = Jury_packet.Addr

type context = {
  cluster : Cluster.t;
  network : Network.t;
  deployment : Jury.Deployment.t;
  faulty : int;
  rng : Rng.t;
}

type t = {
  name : string;
  klass : [ `T1 | `T2 | `T3 ];
  description : string;
  profile : Profile.t;
  policy : string option;
  state_aware : bool;
      (* almost always true; state-blind consensus exists for faults
         (store partition) that state-aware consensus excuses by design *)
  needs_lenient_switches : bool;
  arm_before_start : bool;
  arm : context -> unit;
  provoke : context -> unit;
  settle : Time.t;
  election : Cluster.election_config option;
      (* when set, the run enables dynamic master election with this
         tuning; [None] keeps the seed's static leadership *)
  expected : Jury.Alarm.fault;
}

(* --- helpers --- *)

let switches_mastered_by ctx node =
  Network.switches ctx.network
  |> List.map Switch.dpid
  |> List.filter (fun dpid -> Cluster.master_of ctx.cluster dpid = node)

let a_switch_mastered_by ctx node =
  match switches_mastered_by ctx node with
  | dpid :: _ -> dpid
  | [] -> failwith "scenario: faulty replica masters no switch"

(* An inter-switch link one of whose endpoint switches is mastered by
   [node], with [node] also being the link's liveness master (the
   higher-id master of the two endpoints). *)
let liveness_link_of ctx node =
  let graph = (Network.plan ctx.network).Jury_topo.Builder.graph in
  let edges = Graph.edges graph in
  List.find_opt
    (fun (e : Graph.edge) ->
      let ma = Cluster.master_of ctx.cluster e.a.dpid in
      let mb = Cluster.master_of ctx.cluster e.b.dpid in
      max ma mb = node && (ma = node || mb = node))
    edges

let flap_liveness_link ctx node =
  match liveness_link_of ctx node with
  | None -> failwith "scenario: no suitable link for liveness fault"
  | Some e ->
      Network.take_link_down ctx.network e.a e.b;
      let engine = Cluster.engine ctx.cluster in
      Engine.schedule engine ~after:(Time.ms 500) (fun () ->
          Network.bring_link_up ctx.network e.a e.b)

let sample_flow ?(priority = 300) ~out_port () =
  let m =
    Of_match.l2_pair
      ~src:(Addr.Mac.of_host_index 0)
      ~dst:(Addr.Mac.of_host_index 1)
  in
  Of_message.flow_mod ~priority m [ Of_action.Output out_port ]

let rest_install ctx ~node ~dpid flow =
  Cluster.rest ctx.cluster ~node (Types.Install_flow { dpid; flow })

(* --- the catalog --- *)

let onos_database_locking =
  { name = "onos-database-locking";
    klass = `T1;
    description =
      "Clustered ONOS rejects a switch connect: the replica hits 'failed \
       to obtain lock' on its distributed graph database, so the switch \
       entry is never written (Scott et al. [55]).";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = true;
    arm =
      (fun ctx ->
        Injector.lock_cache ctx.cluster ~node:ctx.faulty ~cache:Names.switchdb);
    provoke =
      (fun ctx ->
        (* The bootstrap FEATURES_REPLY of a switch mastered by the
           faulty replica is the trigger; re-announce to be sure one
           lands after arming. *)
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        Switch.announce (Network.switch ctx.network dpid));
    settle = Time.sec 2;
    election = None;
    expected = Jury.Alarm.Response_timeout }

let onos_master_election =
  { name = "onos-master-election";
    klass = `T1;
    description =
      "After the link-liveness master reboots with a lower id, both \
       replicas believe they are not responsible for the link and the \
       LINKSDB entry is never refreshed (Scott et al. [55]).";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        (* The faulty replica's election logic is stale: it drops the
           LINKSDB writes it should make as liveness master. *)
        Controller.set_mutator
          (Cluster.controller ctx.cluster ctx.faulty)
          (Some (Injector.drop_cache_writes_to ~cache:Names.linksdb)));
    provoke = (fun ctx -> flap_liveness_link ctx ctx.faulty);
    settle = Time.sec 8;
    election = None;
    expected = Jury.Alarm.Consensus_mismatch }

let odl_flowmod_drop =
  { name = "odl-flowmod-drop";
    klass = `T2;
    description =
      "FLOW_MODs read from MD-SAL are sporadically lost before reaching \
       the OpenFlow plugin: the cache holds the rule, the wire never \
       sees it [13].";
    profile = Profile.odl;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        Controller.set_mutator
          (Cluster.controller ctx.cluster ctx.faulty)
          (Some Injector.drop_network_sends));
    provoke =
      (fun ctx ->
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        rest_install ctx ~node:ctx.faulty ~dpid (sample_flow ~out_port:1 ()));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Cache_without_network }

let hierarchy_policy =
  "deny name=flow-field-hierarchy cache=FLOWSDB check=flow-hierarchy"

let odl_incorrect_flowmod =
  { name = "odl-incorrect-flowmod";
    klass = `T3;
    description =
      "A FLOW_MOD whose match violates the OF 1.0 field hierarchy is \
       silently accepted by the switch with the offending fields \
       stripped, so switch and data store disagree [23]. Cache and \
       network are consistent, so only a policy can catch it.";
    profile = Profile.odl;
    policy = Some hierarchy_policy;
    state_aware = true;
    needs_lenient_switches = true;
    arm_before_start = false;
    arm = (fun _ -> ());
    provoke =
      (fun ctx ->
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        let bad_match = Of_match.make ~tp_dst:80 () in
        let flow =
          Of_message.flow_mod ~priority:400 bad_match [ Of_action.Output 1 ]
        in
        rest_install ctx ~node:ctx.faulty ~dpid flow);
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Policy_violation "flow-field-hierarchy" }

let link_failure =
  { name = "link-failure";
    klass = `T1;
    description =
      "Synthetic: on an LLDP trigger the faulty controller updates \
       LINKSDB to mark a healthy critical link as down.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        Controller.set_mutator
          (Cluster.controller ctx.cluster ctx.faulty)
          (Some
             (Injector.corrupt_cache_values_to ~cache:Names.linksdb
                ~value:Values.Link.value_down)));
    provoke = (fun ctx -> flap_liveness_link ctx ctx.faulty);
    settle = Time.sec 8;
    election = None;
    expected = Jury.Alarm.Consensus_mismatch }

let undesirable_flowmod =
  { name = "undesirable-flowmod";
    klass = `T2;
    description =
      "Synthetic: an administrator installs a flow; the faulty \
       controller writes the correct rule to the cache but sends a \
       FLOW_MOD that drops all packets instead.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        Controller.set_mutator
          (Cluster.controller ctx.cluster ctx.faulty)
          (Some Injector.blackhole_flow_mods));
    provoke =
      (fun ctx ->
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        rest_install ctx ~node:ctx.faulty ~dpid (sample_flow ~out_port:2 ()));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Cache_network_mismatch }

let topology_guard_policy =
  "deny name=no-proactive-topology trigger=internal cache=LINKSDB\n\
   deny name=no-proactive-topology-edges trigger=internal cache=EDGEDB"

let faulty_proactive =
  { name = "faulty-proactive";
    klass = `T3;
    description =
      "Synthetic: a proactive application (or administrator) updates \
       LINKSDB to bring a critical link down. Cache and network stay \
       consistent; the Fig. 3 policy forbidding proactive topology \
       writes raises the alarm.";
    profile = Profile.onos;
    policy = Some topology_guard_policy;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm = (fun _ -> ());
    provoke =
      (fun ctx ->
        let graph = (Network.plan ctx.network).Jury_topo.Builder.graph in
        match Graph.edges graph with
        | [] -> failwith "scenario: no link to attack"
        | e :: _ ->
            let key =
              Values.Link.key (e.a.dpid, e.a.port) (e.b.dpid, e.b.port)
            in
            Controller.run_internal
              (Cluster.controller ctx.cluster ctx.faulty)
              ~app:"rogue-app"
              (Types.Proactive
                 [ Types.Cache_write
                     { cache = Names.linksdb;
                       op = Jury_store.Event.Update;
                       key;
                       value = Values.Link.value_down } ]));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Policy_violation "no-proactive-topology" }

let flow_deletion_failure =
  { name = "flow-deletion-failure";
    klass = `T1;
    description =
      "ODL byzantine bug [16]: flow deletion via REST locks the \
       controller up; nothing is deleted and nothing answers.";
    profile = Profile.odl;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        let ctrl = Cluster.controller ctx.cluster ctx.faulty in
        Controller.set_mutator ctrl (Some (fun _ _ -> []));
        Controller.set_omit_probability ctrl 1.0);
    provoke =
      (fun ctx ->
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        (* Install first through a healthy replica, then ask the faulty
           one to delete. *)
        let healthy = (ctx.faulty + 1) mod Cluster.nodes ctx.cluster in
        let flow = sample_flow ~out_port:1 () in
        rest_install ctx ~node:healthy ~dpid flow;
        Engine.schedule (Cluster.engine ctx.cluster) ~after:(Time.sec 1)
          (fun () ->
            Cluster.rest ctx.cluster ~node:ctx.faulty
              (Types.Delete_flow { dpid; fm_match = flow.Of_message.fm_match })));
    settle = Time.sec 4;
    election = None;
    expected = Jury.Alarm.Response_timeout }

let link_detection_inconsistent =
  { name = "link-detection-inconsistent";
    klass = `T1;
    description =
      "ONOS threading races make link detection flaky: re-runs find \
       different link sets [19]. Modelled as the replica losing half of \
       its LINKSDB writes.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        Controller.set_mutator
          (Cluster.controller ctx.cluster ctx.faulty)
          (Some
             (Injector.probabilistic ctx.rng 0.5
                (Injector.drop_cache_writes_to ~cache:Names.linksdb))));
    provoke =
      (fun ctx ->
        (* Flap several liveness links to generate many LINKSDB writes;
           roughly half will be lost. *)
        flap_liveness_link ctx ctx.faulty);
    settle = Time.sec 8;
    election = None;
    expected = Jury.Alarm.Consensus_mismatch }

let flow_instantiation_failure =
  { name = "flow-instantiation-failure";
    klass = `T2;
    description =
      "ODL Helium: restconf flow deployment returns success and updates \
       the store, but no FLOW_MOD ever leaves the controller [3].";
    profile = Profile.odl;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        Controller.set_mutator
          (Cluster.controller ctx.cluster ctx.faulty)
          (Some Injector.drop_network_sends));
    provoke =
      (fun ctx ->
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        rest_install ctx ~node:ctx.faulty ~dpid
          (sample_flow ~priority:350 ~out_port:1 ()));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Cache_without_network }

let pending_add_stuck =
  { name = "pending-add-stuck";
    klass = `T2;
    description =
      "ONOS flow rules stuck in PENDING_ADD: the store holds a rule the \
       switch never confirms [6]. Modelled as a proactive store write \
       whose FLOW_MOD is lost.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        Controller.set_mutator
          (Cluster.controller ctx.cluster ctx.faulty)
          (Some Injector.drop_network_sends));
    provoke =
      (fun ctx ->
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        let flow = sample_flow ~priority:360 ~out_port:1 () in
        let key =
          Values.Flow.key dpid flow.Of_message.fm_match
            ~priority:flow.Of_message.priority
        in
        Controller.run_internal
          (Cluster.controller ctx.cluster ctx.faulty)
          ~app:"flow-pusher"
          (Types.Proactive
             [ Types.Cache_write
                 { cache = Names.flowsdb;
                   op = Jury_store.Event.Create;
                   key;
                   value = Values.Flow.value flow };
               Types.Network_send
                 { dpid; payload = Of_message.Flow_mod flow } ]));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Cache_without_network }

let controller_crash =
  { name = "controller-crash";
    klass = `T1;
    description =
      "Fail-stop crash of a replica. JURY cannot distinguish a crash \
       from response omission (SIII-B): every trigger mastered by the \
       dead replica times out with it as the suspect, until HA \
       failover reassigns its switches.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm = (fun ctx -> Injector.crash ctx.cluster ~node:ctx.faulty);
    provoke =
      (fun ctx ->
        (* Traffic through a switch the dead replica masters. *)
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        let plan = Network.plan ctx.network in
        let local =
          List.find
            (fun (slot : Jury_topo.Builder.host_slot) ->
              Jury_openflow.Of_types.Dpid.equal slot.Jury_topo.Builder.dpid
                dpid)
            plan.Jury_topo.Builder.hosts
        in
        let src = Network.host ctx.network local.Jury_topo.Builder.host_index in
        let dst = Network.host ctx.network 0 in
        Host.send_tcp src ~dst_mac:(Host.mac dst) ~dst_ip:(Host.ip dst)
          ~src_port:4000 ~dst_port:80 ());
    settle = Time.sec 2;
    election = None;
    expected = Jury.Alarm.Response_timeout }

(* Traffic originating behind a given switch — a reactive trigger whose
   primary is whoever masters that switch when the PACKET_IN fires. *)
let send_via_dpid ctx dpid =
  let plan = Network.plan ctx.network in
  let local =
    List.find
      (fun (slot : Jury_topo.Builder.host_slot) ->
        Jury_openflow.Of_types.Dpid.equal slot.Jury_topo.Builder.dpid dpid)
      plan.Jury_topo.Builder.hosts
  in
  let src = Network.host ctx.network local.Jury_topo.Builder.host_index in
  let dst = Network.host ctx.network 0 in
  Host.send_tcp src ~dst_mac:(Host.mac dst) ~dst_ip:(Host.ip dst)
    ~src_port:4000 ~dst_port:80 ()

(* Traffic through a switch the given replica masters — the standard
   provocation for omission-class faults. *)
let send_via_mastered_switch ctx node =
  send_via_dpid ctx (a_switch_mastered_by ctx node)

let controller_crash_rejoin =
  { name = "controller-crash-rejoin";
    klass = `T1;
    description =
      "Crash-and-rejoin: a replica fail-stops (detected as response \
       timeouts, as in controller-crash), then recovers via a state \
       transfer from a healthy peer and resumes answering. The alarms \
       all date from the crash window; the rejoined replica's responses \
       validate cleanly against its resynced store view.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm = (fun ctx -> Injector.crash ctx.cluster ~node:ctx.faulty);
    provoke =
      (fun ctx ->
        (* Crash window: a trigger mastered by the dead replica times
           out. Two seconds in, the replica rejoins; a second trigger
           must then be answered from the resynced state. *)
        send_via_mastered_switch ctx ctx.faulty;
        let engine = Cluster.engine ctx.cluster in
        Engine.schedule engine ~after:(Time.sec 2) (fun () ->
            Injector.rejoin ctx.deployment ~node:ctx.faulty);
        Engine.schedule engine ~after:(Time.ms 2500) (fun () ->
            send_via_mastered_switch ctx ctx.faulty));
    settle = Time.sec 5;
    election = None;
    expected = Jury.Alarm.Response_timeout }

let byzantine_secondary =
  { name = "byzantine-secondary";
    klass = `T1;
    description =
      "A replica turns Byzantine: it answers every replicated trigger \
       promptly but with plausible-but-wrong content (corrupted cache \
       values, FLOW_MODs re-pointed at the wrong port). State-aware \
       consensus outvotes it: the k honest responses agree, the \
       Byzantine one diverges.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm = (fun ctx -> Injector.make_byzantine ctx.cluster ~node:ctx.faulty);
    provoke =
      (fun ctx ->
        (* Install through the Byzantine primary: its cache write and
           FLOW_MOD carry the corruption while every honest secondary's
           replicated execution plans the correct actions. *)
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        rest_install ctx ~node:ctx.faulty ~dpid (sample_flow ~out_port:1 ()));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Consensus_mismatch }

let store_partition =
  { name = "store-partition";
    klass = `T1;
    description =
      "The store fabric partitions one replica from its peers: \
       replication stops crossing the cut, so its view silently \
       diverges while it keeps answering replicated executions from \
       stale state. A topology change it never sees makes its shadow \
       execution dissent from every honest replica. State-aware \
       consensus would excuse the dissent (the snapshots differ — \
       exactly the false-positive SIV-C guards against), so this \
       scenario runs consensus state-blind to surface it.";
    profile = Profile.onos;
    policy = None;
    state_aware = false;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm = (fun ctx -> Injector.partition ctx.cluster ~node:ctx.faulty);
    provoke =
      (fun ctx ->
        (* Cut a link: the LINKSDB updates replicate to everyone but
           the partitioned replica. A reactive trigger towards a host
           behind the cut floods on every honest replica (no path),
           while the stale one still plans the old route — dissent. *)
        let plan = Network.plan ctx.network in
        let graph = plan.Jury_topo.Builder.graph in
        (* Pick a link whose removal strands one endpoint (a degree-1
           stub): traffic for the stranded switch has no route left, so
           every honest replica floods while the stale one still plans
           through the cut. *)
        let edge, stranded =
          let stub (e : Graph.edge) =
            if List.length (Graph.neighbors graph e.a.dpid) = 1 then
              Some (e, e.a.dpid)
            else if List.length (Graph.neighbors graph e.b.dpid) = 1 then
              Some (e, e.b.dpid)
            else None
          in
          match List.find_map stub (Graph.edges graph) with
          | Some p -> p
          | None -> failwith "scenario: no stub link to cut"
        in
        Network.take_link_down ctx.network edge.a edge.b;
        Engine.schedule (Cluster.engine ctx.cluster) ~after:(Time.sec 1)
          (fun () ->
            let host_on dpid =
              match
                List.find_opt
                  (fun (s : Jury_topo.Builder.host_slot) ->
                    Jury_openflow.Of_types.Dpid.equal
                      s.Jury_topo.Builder.dpid dpid)
                  plan.Jury_topo.Builder.hosts
              with
              | Some s ->
                  Network.host ctx.network s.Jury_topo.Builder.host_index
              | None -> failwith "scenario: no host behind the cut"
            in
            (* The trigger's primary must be healthy — the stale
               replica has to dissent as a {e secondary} so the
               honest majority outvotes it. *)
            let healthy = (ctx.faulty + 1) mod Cluster.nodes ctx.cluster in
            let src = host_on (a_switch_mastered_by ctx healthy) in
            let dst = host_on stranded in
            Host.send_tcp src ~dst_mac:(Host.mac dst) ~dst_ip:(Host.ip dst)
              ~src_port:4000 ~dst_port:80 ()));
    settle = Time.sec 4;
    election = None;
    expected = Jury.Alarm.Consensus_mismatch }

let churn_policy =
  "deny name=no-proactive-topology trigger=internal cache=LINKSDB"

let policy_churn =
  { name = "policy-churn";
    klass = `T3;
    description =
      "Policy churn: JURY starts with no policy rules, an operator \
       installs the Fig. 3 topology guard mid-flight (add_rule, \
       recompile on next read), and a rogue proactive write arriving \
       after the churn is caught by the freshly-compiled rule.";
    profile = Profile.onos;
    (* [Some ""] compiles to an empty engine but routes through the
       policy-carrying path: the validator re-reads the rule count per
       verdict. *)
    policy = Some "";
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        let policies =
          (Jury.Deployment.cfg ctx.deployment).validator.Jury.Validator.policies
        in
        match Jury_policy.Parse.dsl_line churn_policy with
        | Ok rule -> Jury_policy.Engine.add_rule policies rule
        | Error msg -> failwith ("policy-churn: " ^ msg));
    provoke =
      (fun ctx ->
        let graph = (Network.plan ctx.network).Jury_topo.Builder.graph in
        match Graph.edges graph with
        | [] -> failwith "scenario: no link to attack"
        | e :: _ ->
            let key =
              Values.Link.key (e.a.dpid, e.a.port) (e.b.dpid, e.b.port)
            in
            Controller.run_internal
              (Cluster.controller ctx.cluster ctx.faulty)
              ~app:"rogue-app"
              (Types.Proactive
                 [ Types.Cache_write
                     { cache = Names.linksdb;
                       op = Jury_store.Event.Update;
                       key;
                       value = Values.Link.value_down } ]));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Policy_violation "no-proactive-topology" }

let master_failover =
  { name = "master-failover";
    klass = `T1;
    description =
      "Mid-run master crash under dynamic leadership: the slow election \
       (2 × 400 ms beats) is an order of magnitude above θτ, so the \
       crash-window trigger times out against the dead master first — \
       that alarm is the detection. Term 2 then fails its switches \
       over, and a later trigger through the same switch validates \
       cleanly under the new master.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm = (fun ctx -> Injector.crash ctx.cluster ~node:ctx.faulty);
    provoke =
      (fun ctx ->
        let dpid = a_switch_mastered_by ctx ctx.faulty in
        send_via_dpid ctx dpid;
        (* Well after the election: the same switch now answers through
           its new master, stamped with term 2. *)
        Engine.schedule (Cluster.engine ctx.cluster) ~after:(Time.sec 2)
          (fun () -> send_via_dpid ctx dpid));
    settle = Time.sec 4;
    election = Some { Cluster.period = Time.ms 400; timeout_beats = 2 };
    expected = Jury.Alarm.Response_timeout }

let election_storm =
  { name = "election-storm";
    klass = `T1;
    description =
      "Leadership churn must not mask a real fault: a healthy replica \
       crashes (the fast election beats θτ, so its in-flight trigger is \
       re-attributed to the new master and validates there at term 2), \
       rejoins as a secondary, and crashes again (term 3) — while a \
       Byzantine replica keeps answering promptly with corrupted \
       content. State-aware consensus still convicts the Byzantine one \
       mid-storm.";
    profile = Profile.onos;
    policy = None;
    state_aware = true;
    needs_lenient_switches = false;
    arm_before_start = false;
    arm = (fun ctx -> Injector.make_byzantine ctx.cluster ~node:ctx.faulty);
    provoke =
      (fun ctx ->
        let engine = Cluster.engine ctx.cluster in
        let storm = (ctx.faulty + 1) mod Cluster.nodes ctx.cluster in
        (* Crash the storm node with a trigger of its own in flight: the
           2 × 30 ms election declares it dead before the 150 ms θτ
           expires, so the trigger is re-driven at the new master
           instead of timing out. *)
        Injector.crash ctx.cluster ~node:storm;
        send_via_mastered_switch ctx storm;
        Engine.schedule engine ~after:(Time.sec 1) (fun () ->
            Injector.rejoin ctx.deployment ~node:storm);
        Engine.schedule engine ~after:(Time.sec 2) (fun () ->
            Injector.crash ctx.cluster ~node:storm);
        Engine.schedule engine ~after:(Time.sec 3) (fun () ->
            let dpid = a_switch_mastered_by ctx ctx.faulty in
            rest_install ctx ~node:ctx.faulty ~dpid
              (sample_flow ~out_port:1 ())));
    settle = Time.sec 5;
    election = Some { Cluster.period = Time.ms 30; timeout_beats = 2 };
    expected = Jury.Alarm.Consensus_mismatch }

let ryu_standalone_hang =
  { name = "ryu-standalone-hang";
    klass = `T1;
    description =
      "Standalone (Ryu-style) instances share no store, so JURY \
       validates by replicating the trigger stream across independent \
       instances and voting on the response stream alone (state-blind \
       consensus is forced by the profile). A hung instance — REST \
       accepted, nothing executed, nothing answered — is caught as a \
       response timeout attributed to it.";
    profile = Profile.ryu;
    policy = None;
    state_aware = true; (* install forces state-blind: no shared store *)
    needs_lenient_switches = false;
    arm_before_start = false;
    arm =
      (fun ctx ->
        let ctrl = Cluster.controller ctx.cluster ctx.faulty in
        Controller.set_mutator ctrl (Some (fun _ _ -> []));
        Controller.set_omit_probability ctrl 1.0);
    provoke =
      (fun ctx ->
        (* Every switch is mastered by the standalone leader; the REST
           call targets the hung instance directly, making it the
           primary the omission is attributed to. *)
        let dpid =
          match Network.switches ctx.network with
          | s :: _ -> Switch.dpid s
          | [] -> failwith "scenario: no switch"
        in
        rest_install ctx ~node:ctx.faulty ~dpid (sample_flow ~out_port:1 ()));
    settle = Time.sec 3;
    election = None;
    expected = Jury.Alarm.Response_timeout }

let all =
  [ onos_database_locking;
    onos_master_election;
    odl_flowmod_drop;
    odl_incorrect_flowmod;
    link_failure;
    undesirable_flowmod;
    faulty_proactive;
    flow_deletion_failure;
    link_detection_inconsistent;
    flow_instantiation_failure;
    pending_add_stuck;
    controller_crash;
    controller_crash_rejoin;
    byzantine_secondary;
    store_partition;
    policy_churn;
    master_failover;
    election_storm;
    ryu_standalone_hang ]

let find name = List.find_opt (fun s -> s.name = name) all
let names = List.map (fun s -> s.name) all

let klass_name t =
  match t.klass with `T1 -> "T1" | `T2 -> "T2" | `T3 -> "T3"

(* --- JURY configuration for a scenario --- *)

let jury_config (t : t) ?(k = 6) ?(random_secondaries = true) ?shards
    ?max_inflight ?batch () =
  let policies =
    match t.policy with
    | None -> Jury_policy.Engine.create []
    | Some src -> (
        match Jury_policy.Engine.of_dsl src with
        | Ok e -> e
        | Error msg -> failwith ("scenario policy: " ^ msg))
  in
  (* ONOS replicates raw stores and standalone Ryu has nothing to wrap;
     the ODL-style profiles wrap updates in an encapsulation layer JURY
     must strip (§IV-B) — keyed on the profile's decapsulation cost. *)
  let encapsulation = t.profile.Profile.decapsulation_cost_median_us > 0. in
  Jury.Jury_config.make ~k ~random_secondaries ~policies ~encapsulation
    ~state_aware:t.state_aware ?shards ?max_inflight ?batch
    ?election:t.election ()
