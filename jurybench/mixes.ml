(* The traffic mix of the deployment workloads: [Flows.controlled_mix]'s
   new-connection and host-join rates, without its link flaps.

   Two changes make one run's work independent of its seed's luck, so
   the per-trigger figures of different seeds are comparable:

   - each generator makes exactly [rate * duration] arrivals, spread as
     a Poisson process conditioned on that count (sorted uniform
     instants), instead of a Poisson count;
   - the hop count that scales the connection rate is the exact mean
     over all switch pairs, not an estimate from 64 sampled pairs.

   Link flaps are left out: see README.md, "The link-flap storm". *)

open Jury_sim
module Network = Jury_net.Network
module Host = Jury_net.Host
module Builder = Jury_topo.Builder
module Graph = Jury_topo.Graph

(* Mean switch-path length over all ordered pairs of distinct switches:
   a new connection misses the flow table at every hop of its path. *)
let mean_hops graph =
  let switches = Graph.switches graph in
  let total = ref 0 and pairs = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            match Graph.shortest_path graph a b with
            | Some path ->
                total := !total + List.length path;
                incr pairs
            | None -> ())
        switches)
    switches;
  if !pairs = 0 then 1. else float_of_int !total /. float_of_int !pairs

(* [count] arrivals over [duration] from now, open loop: each arrival is
   scheduled when the previous one fires, whatever the backlog. Given
   x, the next of m remaining uniform points on [x, 1] sits at
   x + (1 - x)(1 - v^(1/m)). *)
let arrivals engine ~rng ~count ~duration f =
  let start = Engine.now engine in
  let span_us = Time.to_float_us duration in
  let rec next i x =
    if i < count then begin
      let m = float_of_int (count - i) in
      let x = x +. ((1. -. x) *. (1. -. (Rng.float rng 1.0 ** (1. /. m)))) in
      ignore
        (Engine.schedule_at engine
           ~at:(Time.add start (Time.of_float_us (x *. span_us)))
           (fun () ->
             f ();
             next (i + 1) x))
    end
  in
  next 0 0.

(* ~30% of PACKET_INs are flow-setup misses of fresh TCP connections
   between random host pairs, ~70% host churn (gratuitous ARPs flooding
   every switch), as in controlled_mix. *)
let steady network ~rng ~packet_in_rate ~duration =
  let graph = (Network.plan network).Builder.graph in
  let engine = Network.engine network in
  let hosts = Array.of_list (Network.hosts network) in
  let n = Array.length hosts in
  let count rate =
    int_of_float (Float.round (rate *. Time.to_float_sec duration))
  in
  let port = ref 10_000 in
  arrivals engine ~rng
    ~count:(count (packet_in_rate *. 0.30 /. mean_hops graph))
    ~duration
    (fun () ->
      let a = Rng.int rng n in
      let b = (a + 1 + Rng.int rng (n - 1)) mod n in
      port := if !port >= 60_000 then 10_001 else !port + 1;
      Host.send_tcp hosts.(a) ~dst_mac:(Host.mac hosts.(b))
        ~dst_ip:(Host.ip hosts.(b)) ~payload_len:512 ~src_port:!port
        ~dst_port:80 ());
  arrivals engine ~rng
    ~count:
      (count
         (Float.max 0.5
            (packet_in_rate *. 0.69
            /. float_of_int (Graph.switch_count graph))))
    ~duration
    (fun () -> Host.join hosts.(Rng.int rng n))
