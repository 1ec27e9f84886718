open Jury_sim
module Network = Jury_net.Network
module Switch = Jury_net.Switch
module Rate = Jury_stats.Rate

type t = {
  packet_in : Rate.t;
  flow_mod : Rate.t;
  packet_out : Rate.t;
  mutable last_pi : int;
  mutable last_fm : int;
  mutable last_po : int;
}

let totals network =
  List.fold_left
    (fun (pi, fm, po) sw ->
      ( pi + Switch.packet_in_count sw,
        fm + Switch.flow_mod_count sw,
        po + Switch.packet_out_count sw ))
    (0, 0, 0) (Network.switches network)

let start network ?(window_sec = 0.5) ~duration () =
  let engine = Network.engine network in
  let pi0, fm0, po0 = totals network in
  let t =
    { packet_in = Rate.create ~window_sec;
      flow_mod = Rate.create ~window_sec;
      packet_out = Rate.create ~window_sec;
      last_pi = pi0;
      last_fm = fm0;
      last_po = po0 }
  in
  let stop_at = Time.add (Engine.now engine) duration in
  let period = Time.of_float_sec window_sec in
  let rec arm () =
    let at = Time.add (Engine.now engine) period in
    if Time.(at <= stop_at) then
      Engine.schedule_at engine ~at (fun () ->
          let pi, fm, po = totals network in
          let now_sec = Time.to_float_sec (Engine.now engine) in
          Rate.tick t.packet_in ~at_sec:now_sec ~count:(pi - t.last_pi) ();
          Rate.tick t.flow_mod ~at_sec:now_sec ~count:(fm - t.last_fm) ();
          Rate.tick t.packet_out ~at_sec:now_sec ~count:(po - t.last_po) ();
          t.last_pi <- pi;
          t.last_fm <- fm;
          t.last_po <- po;
          arm ())
  in
  arm ();
  t

let packet_in t = t.packet_in
let flow_mod t = t.flow_mod
let packet_out t = t.packet_out
let total_packet_in t = Rate.total t.packet_in
let total_flow_mod t = Rate.total t.flow_mod
let mean_flow_mod_rate t = Rate.mean_rate t.flow_mod
