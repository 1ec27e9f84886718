open Jury_sim
module Network = Jury_net.Network
module Host = Jury_net.Host
module Builder = Jury_topo.Builder

let default_burst = 5_000
let default_gap = Time.ms 50

let blast network ~rng ~dpid ~burst ~burst_gap ~duration =
  ignore rng;
  (* Per-invocation port counter: keeps concurrent runs on a Jury_par
     pool deterministic and race-free. *)
  let next_port = ref 1_024 in
  let fresh_port () =
    incr next_port;
    if !next_port > 65_000 then next_port := 1_024;
    !next_port
  in
  let engine = Network.engine network in
  let plan = Network.plan network in
  let local_hosts =
    List.filter
      (fun (slot : Builder.host_slot) ->
        Jury_openflow.Of_types.Dpid.equal slot.dpid dpid)
      plan.Builder.hosts
  in
  let src, dst =
    match local_hosts with
    | a :: b :: _ ->
        (Network.host network a.host_index, Network.host network b.host_index)
    | _ -> invalid_arg "Cbench.blast: target switch needs >= 2 hosts"
  in
  let stop_at = Time.add (Engine.now engine) duration in
  let fire_burst () =
    for _ = 1 to burst do
      Host.send_tcp src ~dst_mac:(Host.mac dst) ~dst_ip:(Host.ip dst)
        ~src_port:(fresh_port ()) ~dst_port:80 ()
    done
  in
  let rec arm () =
    let at = Time.add (Engine.now engine) burst_gap in
    if Time.(at <= stop_at) then
      Engine.schedule_at engine ~at (fun () ->
          fire_burst ();
          arm ())
  in
  fire_burst ();
  arm ()
