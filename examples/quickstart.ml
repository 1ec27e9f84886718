(* Quickstart: stand up a JURY-enhanced 5-node controller cluster on a
   small network, push traffic, then corrupt one replica and watch JURY
   detect and attribute the fault.

     dune exec examples/quickstart.exe *)

open Jury_sim
module Setup = Jury_experiments.Setup
module Network = Jury_net.Network
module Host = Jury_net.Host
module Cluster = Jury_controller.Cluster
module Controller = Jury_controller.Controller
module Profile = Jury_controller.Profile

let () =
  (* 1. A deterministic simulation engine, a small data plane (eight
     switches in a line, one host each) and an ONOS-flavoured HA
     cluster of five replicas. JURY goes on top: every external trigger
     is replicated to k=2 random secondaries and validated out-of-band. *)
  let cluster =
    Setup.build ~seed:2026 ~switches:8 ~profile:Profile.onos ~nodes:5 ()
  in
  let engine = Cluster.engine cluster and network = Cluster.network cluster in
  let deployment =
    Jury.Jury_config.install cluster (Jury.Jury_config.make ~k:2 ())
  in
  let validator = Jury.Deployment.validator deployment in
  Jury.Validator.on_verdict validator (fun alarm ->
      if Jury.Alarm.is_fault alarm then
        Format.printf "  !! ALARM %a@." Jury.Alarm.pp alarm);

  (* 2. Boot: mastership assignment, switch connection, LLDP topology
     discovery, host announcement. *)
  Setup.boot cluster;
  Printf.printf "cluster up: %d switches, %d links discovered\n"
    (Jury_store.Fabric.entry_count (Cluster.fabric cluster) ~node:0
       ~cache:Jury_store.Cache_names.switchdb)
    (Jury_store.Fabric.entry_count (Cluster.fabric cluster) ~node:0
       ~cache:Jury_store.Cache_names.linksdb);

  (* 3. Benign traffic: host 0 talks to host 7 across the whole chain.
     Reactive forwarding installs a rule per hop; JURY validates every
     PACKET_IN response along the way. *)
  let h0 = Network.host network 0 and h7 = Network.host network 7 in
  Host.send_tcp h0 ~dst_mac:(Host.mac h7) ~dst_ip:(Host.ip h7) ~src_port:40000
    ~dst_port:80 ();
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  Printf.printf "benign traffic: %d controller responses validated, %d alarms\n"
    (Jury.Validator.decided_count validator)
    (Jury.Validator.fault_count validator);

  (* 4. Now make replica 1 faulty: it silently turns every FLOW_MOD it
     sends into a packet-dropping rule (the paper's "undesirable
     FLOW_MOD" T2 fault) while writing the correct rule to the cache. *)
  Printf.printf "\ninjecting fault: replica 1 blackholes FLOW_MODs...\n";
  Controller.set_mutator
    (Cluster.controller cluster 1)
    (Some Jury_faults.Injector.blackhole_flow_mods);
  (* An administrator installs a flow through replica 1's northbound API. *)
  let dpid = Jury_openflow.Of_types.Dpid.of_int 2 in
  let rule =
    Jury_openflow.Of_message.flow_mod ~priority:300
      (Jury_openflow.Of_match.l2_dst ~dst:(Host.mac h7))
      [ Jury_openflow.Of_action.Output 2 ]
  in
  Cluster.rest cluster ~node:1
    (Jury_controller.Types.Install_flow { dpid; flow = rule });
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 2));

  let alarms = Jury.Validator.alarms validator in
  Printf.printf "\nJURY raised %d alarm(s); detection time of the first: %s\n"
    (List.length alarms)
    (match alarms with
    | a :: _ -> Time.to_string (Jury.Alarm.detection_time a)
    | [] -> "n/a");
  print_endline "done."
