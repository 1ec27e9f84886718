open Jury_sim
module Network = Jury_net.Network
module Host = Jury_net.Host

type profile = {
  name : string;
  mean_rate : float;
  burstiness : float;
  arp_fraction : float;
  udp_fraction : float;
  mean_payload : int;
}

(* Rates are injection rates at the hosts; every TCP/UDP packet misses
   hop-by-hop and every ARP floods, so the PACKET_IN rate the cluster
   sees is several times higher (the regime the paper replays at). *)
let lbnl =
  { name = "LBNL";
    mean_rate = 320.;
    burstiness = 0.6;
    arp_fraction = 0.12;
    udp_fraction = 0.25;
    mean_payload = 420 }

let univ =
  { name = "UNIV";
    mean_rate = 450.;
    burstiness = 1.1;
    arp_fraction = 0.05;
    udp_fraction = 0.35;
    mean_payload = 730 }

let smia =
  { name = "SMIA";
    mean_rate = 280.;
    burstiness = 1.6;
    arp_fraction = 0.2;
    udp_fraction = 0.15;
    mean_payload = 240 }

let all = [ lbnl; univ; smia ]
let find name = List.find_opt (fun p -> p.name = name) all

let replay network ~rng ~profile ~duration =
  (* Per-invocation port counter: the replay's port sequence depends
     only on this run, keeping concurrent runs on a Jury_par pool
     deterministic. *)
  let next_port = ref 20_000 in
  let fresh_port () =
    incr next_port;
    if !next_port > 60_000 then next_port := 20_000;
    !next_port
  in
  let engine = Network.engine network in
  let hosts = Array.of_list (Network.hosts network) in
  if Array.length hosts < 2 then invalid_arg "Traces.replay: need >= 2 hosts";
  let stop_at = Time.add (Engine.now engine) duration in
  (* Lognormal gaps with the profile's mean rate: mean of lognormal is
     exp(mu + sigma^2/2), so mu = ln(mean_gap) - sigma^2/2. *)
  let sigma = profile.burstiness in
  let mu = log (1e6 /. profile.mean_rate) -. (sigma *. sigma /. 2.) in
  let pick_pair () =
    let a = Rng.int rng (Array.length hosts) in
    let b = (a + 1 + Rng.int rng (Array.length hosts - 1))
            mod Array.length hosts in
    (hosts.(a), hosts.(b))
  in
  let fire () =
    let src, dst = pick_pair () in
    let r = Rng.float rng 1.0 in
    if r < profile.arp_fraction then
      Host.send_arp_request src ~target:(Host.ip dst)
    else begin
      let payload_len =
        int_of_float (Rng.exponential rng (float_of_int profile.mean_payload))
      in
      if r < profile.arp_fraction +. profile.udp_fraction then
        Host.send_udp src ~dst_mac:(Host.mac dst) ~dst_ip:(Host.ip dst)
          ~payload_len ~src_port:(fresh_port ()) ~dst_port:53 ()
      else
        Host.send_tcp src ~dst_mac:(Host.mac dst) ~dst_ip:(Host.ip dst)
          ~payload_len ~src_port:(fresh_port ()) ~dst_port:443 ()
    end
  in
  let rec arm () =
    let gap = Time.of_float_us (Rng.lognormal rng ~mu ~sigma) in
    let at = Time.add (Engine.now engine) gap in
    if Time.(at <= stop_at) then
      Engine.schedule_at engine ~at (fun () ->
          fire ();
          arm ())
  in
  arm ()
