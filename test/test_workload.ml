(* Tests for workload generators and the probe. *)

open Jury_sim
module Flows = Jury_workload.Flows
module Traces = Jury_workload.Traces
module Cbench = Jury_workload.Cbench
module Probe = Jury_workload.Probe
module Firehose = Jury_workload.Firehose
module Network = Jury_net.Network
module Switch = Jury_net.Switch
module Builder = Jury_topo.Builder

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk ?(switches = 4) ?(hosts_per_switch = 2) () =
  let engine = Engine.create ~seed:31 () in
  let plan = Builder.linear ~switches ~hosts_per_switch in
  let network = Network.create engine plan () in
  (engine, network)

let total_packet_ins network =
  List.fold_left
    (fun acc sw -> acc + Switch.packet_in_count sw)
    0 (Network.switches network)

let test_new_connections_rate () =
  let engine, network = mk () in
  let rng = Rng.split (Engine.rng engine) in
  Flows.new_connections network ~rng ~rate:1000. ~duration:(Time.sec 2)
    ~mode:Flows.Same_switch ();
  Engine.run engine;
  let pis = total_packet_ins network in
  (* Poisson with mean 2000; each same-switch connection misses once. *)
  check_bool "rate approx" true (pis > 1700 && pis < 2300)

let test_same_switch_stays_local () =
  let engine, network = mk () in
  let rng = Rng.split (Engine.rng engine) in
  Flows.new_connections network ~rng ~rate:200. ~duration:(Time.sec 1)
    ~mode:Flows.Same_switch ();
  Engine.run engine;
  (* No controller: frames die at their first switch as PACKET_INs,
     never crossing links. *)
  List.iter
    (fun sw ->
      check_int
        ("no transit at " ^ Jury_openflow.Of_types.Dpid.to_string (Switch.dpid sw))
        (Switch.packet_in_count sw)
        (Switch.packet_in_count sw))
    (Network.switches network);
  check_bool "some packet_ins" true (total_packet_ins network > 100)

let test_host_joins () =
  let engine, network = mk () in
  let rng = Rng.split (Engine.rng engine) in
  Flows.host_joins network ~rng ~rate:50. ~duration:(Time.sec 1);
  Engine.run engine;
  check_bool "gratuitous arps hit switches" true (total_packet_ins network > 20)

let test_link_flaps_recover () =
  let engine, network = mk () in
  let rng = Rng.split (Engine.rng engine) in
  Flows.link_flaps network ~rng ~rate:5. ~duration:(Time.sec 2)
    ~down_time:(Time.ms 100) ();
  Engine.run engine;
  (* After the run every link must be back up: sending across the chain
     floods PACKET_INs at the far switch. *)
  let h0 = Network.host network 0 in
  let far = Network.host network (2 * 4 - 1) in
  Jury_net.Host.send_tcp h0 ~dst_mac:(Jury_net.Host.mac far)
    ~dst_ip:(Jury_net.Host.ip far) ~src_port:1 ~dst_port:2 ();
  Engine.run engine;
  check_bool "links restored" true (total_packet_ins network > 0)

let test_traces_profiles () =
  check_int "three traces" 3 (List.length Traces.all);
  check_bool "find by name" true (Traces.find "LBNL" <> None);
  check_bool "unknown" true (Traces.find "NOPE" = None);
  List.iter
    (fun (p : Traces.profile) ->
      check_bool (p.Traces.name ^ " sane rate") true (p.Traces.mean_rate > 0.);
      check_bool (p.Traces.name ^ " sane mix") true
        (p.Traces.arp_fraction +. p.Traces.udp_fraction < 1.))
    Traces.all

let test_trace_replay_rate () =
  let engine, network = mk ~switches:6 ~hosts_per_switch:2 () in
  let rng = Rng.split (Engine.rng engine) in
  Traces.replay network ~rng ~profile:Traces.lbnl ~duration:(Time.sec 2);
  Engine.run engine;
  let pis = total_packet_ins network in
  (* LBNL ~700/s for 2s; lognormal gaps make this noisy. *)
  check_bool "roughly profile rate" true (pis > 600 && pis < 2800)

let test_cbench_blast () =
  let engine, network = mk () in
  let rng = Rng.split (Engine.rng engine) in
  Cbench.blast network ~rng ~dpid:(Jury_openflow.Of_types.Dpid.of_int 1)
    ~burst:100 ~burst_gap:(Time.ms 100) ~duration:(Time.sec 1);
  Engine.run engine;
  let sw1 = Network.switch network (Jury_openflow.Of_types.Dpid.of_int 1) in
  (* 1 initial + 10 periodic bursts of 100 *)
  check_bool "bursts injected" true (Switch.packet_in_count sw1 >= 1000)

let test_probe () =
  let engine, network = mk () in
  let rng = Rng.split (Engine.rng engine) in
  let probe = Probe.start network ~window_sec:0.5 ~duration:(Time.sec 2) () in
  Flows.new_connections network ~rng ~rate:400. ~duration:(Time.sec 2)
    ~mode:Flows.Same_switch ();
  Engine.run engine;
  check_bool "packet_in total counted" true (Probe.total_packet_in probe > 600);
  check_bool "series non-empty" true
    (Array.length (Jury_stats.Rate.series (Probe.packet_in probe)) >= 3);
  (* no controller => no flow mods *)
  check_int "no flow mods" 0 (Probe.total_flow_mod probe)

(* A firehose flow key is the [Printf] rendering, byte for byte, over
   random host ids, 0, and the ends of the int range (which [%x] prints
   as unsigned 63-bit patterns). *)
let prop_flow_key_is_printf =
  let host =
    QCheck.Gen.(
      oneof
        [ oneofl [ 0; 1; 15; 16; 0xFFFF; 1_999_999; max_int; min_int; -1 ];
          int_bound 2_000_000;
          int ])
  in
  QCheck.Test.make ~name:"Firehose.flow_key = Printf" ~count:1000
    QCheck.(
      make ~print:(fun (a, b) -> Printf.sprintf "%d %d" a b)
        (Gen.pair host host))
    (fun (src, dst) ->
      String.equal (Firehose.flow_key src dst)
        (Printf.sprintf "fw/%x>%x" src dst))

(* The key allocates only its string: 3 words (header and two words of
   bytes) for the 13-byte key of hosts 0x1e8479 and 0xabc. Budget 1.5x
   that, on OCaml 5.1.1. *)
let test_flow_key_allocation () =
  let src = 0x1e8479 and dst = 0xabc in
  ignore (Sys.opaque_identity (Firehose.flow_key src dst));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Firehose.flow_key src dst))
  done;
  let words = (Gc.minor_words () -. before) /. 1000. in
  if words > 4.5 then
    Alcotest.failf "Firehose.flow_key allocates %.1f words, budget 4.5" words

let suite =
  [ ("new connections rate", `Quick, test_new_connections_rate);
    ("same-switch locality", `Quick, test_same_switch_stays_local);
    ("host joins", `Quick, test_host_joins);
    ("link flaps recover", `Quick, test_link_flaps_recover);
    ("trace profiles", `Quick, test_traces_profiles);
    ("trace replay rate", `Quick, test_trace_replay_rate);
    ("cbench blast", `Quick, test_cbench_blast);
    ("probe", `Quick, test_probe);
    QCheck_alcotest.to_alcotest prop_flow_key_is_printf;
    ("flow key allocation budget", `Quick, test_flow_key_allocation) ]
