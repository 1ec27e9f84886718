(* Network debugging: the operational tooling around JURY —
   - packet capture on the data plane (OFRewind-style recording),
   - latency-weighted path inspection,
   - the administrator's aggregated alarm report.

     dune exec examples/network_debugging.exe *)

open Jury_sim
module Builder = Jury_topo.Builder
module Graph = Jury_topo.Graph
module Weighted = Jury_topo.Weighted
module Network = Jury_net.Network
module Capture = Jury_net.Capture
module Host = Jury_net.Host
module Cluster = Jury_controller.Cluster
module Setup = Jury_experiments.Setup
module Dpid = Jury_openflow.Of_types.Dpid

let () =
  let plan = Builder.ring ~switches:5 ~hosts_per_switch:1 in
  let cluster =
    Setup.build ~seed:5 ~plan ~profile:Jury_controller.Profile.onos ~nodes:3 ()
  in
  let engine = Cluster.engine cluster and network = Cluster.network cluster in
  let deployment =
    Jury.Jury_config.install cluster (Jury.Jury_config.make ~k:2 ())
  in
  (* Tap every switch before any traffic flows. *)
  let capture = Capture.create ~capacity:5_000 engine in
  List.iter (Capture.tap_switch capture) (Network.switches network);
  Setup.boot cluster;

  (* 1. Weighted routing: on the ring, going clockwise or counter-
     clockwise differs once we weight a link as congested. *)
  let g = plan.Builder.graph in
  let d = Dpid.of_int in
  (match Weighted.shortest_path g Weighted.uniform (d 1) (d 3) with
  | Some (hops, w) ->
      Printf.printf "uniform route 1 -> 3: %d hops, weight %.0f\n"
        (List.length hops) w
  | None -> ());
  let congested =
    Graph.edges g
    |> List.filter_map (fun (e : Graph.edge) ->
           if Dpid.equal e.Graph.a.Graph.dpid (d 2)
              || Dpid.equal e.Graph.b.Graph.dpid (d 2)
           then Some (e.Graph.a, e.Graph.b, 10.)
           else None)
  in
  (match
     Weighted.shortest_path g (Weighted.of_assignments congested) (d 1) (d 3)
   with
  | Some (hops, w) ->
      Printf.printf
        "with switch 2's links weighted 10x: %d hops, weight %.0f (detours \
         around the congestion)\n"
        (List.length hops) w
  | None -> ());

  (* 2. Drive a flow and look at what the capture recorded. *)
  let t0 = Engine.now engine in
  let h0 = Network.host network 0 and h2 = Network.host network 2 in
  Host.send_tcp h0 ~dst_mac:(Host.mac h2) ~dst_ip:(Host.ip h2) ~src_port:5000
    ~dst_port:80 ();
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  let tcp_entries =
    Capture.between capture ~since:t0 ~until:(Engine.now engine)
    |> List.filter (fun (e : Capture.entry) ->
           match e.Capture.frame.Jury_packet.Frame.payload with
           | Jury_packet.Frame.Ipv4 _ -> true
           | _ -> false)
  in
  Printf.printf "\ncapture: %d frames total, TCP movements of the new flow:\n"
    (Capture.count capture);
  List.iteri
    (fun i e -> if i < 6 then Format.printf "  %a@." Capture.pp_entry e)
    tcp_entries;

  (* 3. The administrator's report after some background churn. *)
  let rng = Rng.split (Engine.rng engine) in
  Jury_workload.Flows.controlled_mix network ~rng ~packet_in_rate:300.
    ~duration:(Time.sec 3);
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 5));
  print_newline ();
  print_string
    (Jury.Report.to_string
       (Jury.Report.of_validator (Jury.Deployment.validator deployment)))
