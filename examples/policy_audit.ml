(* Policy audit: author administrator policies in both supported
   syntaxes (the paper's Fig. 3 XML form and the compact DSL), install
   them into JURY's validator, and demonstrate that a T3 fault —
   consistent cache and network writes that are nevertheless wrong — is
   caught only by policy (§V, §VII-A1 synthetic fault 3).

     dune exec examples/policy_audit.exe *)

open Jury_sim
module Builder = Jury_topo.Builder
module Network = Jury_net.Network
module Host = Jury_net.Host
module Cluster = Jury_controller.Cluster
module Setup = Jury_experiments.Setup
module Controller = Jury_controller.Controller
module Types = Jury_controller.Types
module Values = Jury_controller.Values
module Graph = Jury_topo.Graph

(* The exact policy from the paper's Fig. 3: alarm whenever any
   controller proactively modifies the topology caches. *)
let fig3_xml =
  {|<Policy allow="No" name="no-proactive-topology">
      <Controller id="*"/>
      <Action type="Internal"/>
      <Cache ="EdgesDB" entry="*,*" operation="*"/>
      <Destination value="*"/>
    </Policy>
    <Policy allow="No" name="no-proactive-links">
      <Controller id="*"/>
      <Action type="Internal"/>
      <Cache ="LinksDB" entry="*,*" operation="*"/>
      <Destination value="*"/>
    </Policy>|}

(* The same idea in the compact DSL, plus the OF 1.0 field-hierarchy
   guard that catches the "ODL incorrect FLOW_MOD" fault. *)
let dsl =
  "deny name=flow-field-hierarchy cache=FLOWSDB check=flow-hierarchy\n\
   deny name=no-drop-rules cache=FLOWSDB check=flow-drop trigger=external"

let () =
  let xml_rules =
    match Jury_policy.Parse.xml fig3_xml with
    | Ok rules -> rules
    | Error e -> failwith ("XML policy: " ^ e)
  in
  let dsl_rules =
    match Jury_policy.Parse.dsl dsl with
    | Ok rules -> rules
    | Error e -> failwith ("DSL policy: " ^ e)
  in
  let policies = Jury_policy.Engine.create (xml_rules @ dsl_rules) in
  Printf.printf "loaded %d policies:\n" (Jury_policy.Engine.rule_count policies);
  List.iter
    (fun r -> Format.printf "  %a@." Jury_policy.Ast.pp_rule r)
    (Jury_policy.Engine.rules policies);

  let cluster =
    Setup.build ~seed:7 ~switches:6 ~profile:Jury_controller.Profile.onos
      ~nodes:5 ()
  in
  let engine = Cluster.engine cluster in
  let plan = Network.plan (Cluster.network cluster) in
  let deployment =
    Jury.Jury_config.install cluster (Jury.Jury_config.make ~k:2 ~policies ())
  in
  let validator = Jury.Deployment.validator deployment in
  Setup.boot cluster;

  (* A rogue proactive application on replica 3 marks a healthy link as
     down. Cache and network stay consistent — consensus and sanity
     checks have nothing to say — but the Fig. 3 policy fires. *)
  Printf.printf "\nrogue proactive app on replica 3 disables a core link...\n";
  let edge = List.hd (Graph.edges plan.Builder.graph) in
  Controller.run_internal
    (Cluster.controller cluster 3)
    ~app:"rogue-traffic-engineering"
    (Types.Proactive
       [ Types.Cache_write
           { cache = Jury_store.Cache_names.linksdb;
             op = Jury_store.Event.Update;
             key =
               Values.Link.key
                 (edge.Graph.a.Graph.dpid, edge.Graph.a.Graph.port)
                 (edge.Graph.b.Graph.dpid, edge.Graph.b.Graph.port);
             value = Values.Link.value_down } ]);
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  List.iter
    (fun a -> Format.printf "  !! %a@." Jury.Alarm.pp a)
    (Jury.Validator.alarms validator);

  (* And an administrator pushes a FLOW_MOD whose match violates the
     OF 1.0 field hierarchy — the T3 fault the hierarchy policy guards
     against. *)
  Printf.printf "\nadministrator installs a hierarchy-violating flow...\n";
  let bad_match =
    { Jury_openflow.Of_match.wildcard_all with
      Jury_openflow.Of_match.tp_dst = Some 80 }
  in
  Cluster.rest cluster ~node:0
    (Types.Install_flow
       { dpid = Jury_openflow.Of_types.Dpid.of_int 1;
         flow =
           Jury_openflow.Of_message.flow_mod ~priority:400 bad_match
             [ Jury_openflow.Of_action.Output 1 ] });
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  let alarms = Jury.Validator.alarms validator in
  List.iter (fun a -> Format.printf "  !! %a@." Jury.Alarm.pp a) alarms;
  Printf.printf "\n%d alarm(s) total — both T3 faults caught by policy.\n"
    (List.length alarms)
