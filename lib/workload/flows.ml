open Jury_sim
module Network = Jury_net.Network
module Host = Jury_net.Host
module Builder = Jury_topo.Builder
module Graph = Jury_topo.Graph

type pair_mode = Same_switch | Any_pair

(* Poisson process: schedule [event] at exponential gaps until
   [duration] elapses. *)
let poisson network ~rng ~rate ~duration event =
  if rate <= 0. then invalid_arg "Flows: rate must be positive";
  let engine = Network.engine network in
  let stop_at = Time.add (Engine.now engine) duration in
  let mean_gap_us = 1e6 /. rate in
  let rec arm () =
    let gap = Time.of_float_us (Rng.exponential rng mean_gap_us) in
    let at = Time.add (Engine.now engine) gap in
    if Time.(at <= stop_at) then
      Engine.schedule_at engine ~at (fun () ->
          event ();
          arm ())
  in
  arm ()

let hosts_by_switch network =
  let plan = Network.plan network in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (slot : Builder.host_slot) ->
      let cur =
        Option.value (Hashtbl.find_opt tbl slot.dpid) ~default:[]
      in
      Hashtbl.replace tbl slot.dpid (slot.host_index :: cur))
    plan.Builder.hosts;
  Hashtbl.fold (fun _ hs acc -> Array.of_list hs :: acc) tbl []
  |> List.filter (fun a -> Array.length a >= 2)
  |> Array.of_list

(* Source-port allocation is per generator invocation, not a module
   global: a run's port sequence must depend only on that run's inputs
   so that runs executing concurrently on a Jury_par pool stay
   deterministic and race-free. *)
let port_allocator ~base ~limit =
  let next = ref base in
  fun () ->
    incr next;
    if !next > limit then next := base;
    !next

let connect network ~rng ~payload_len ~fresh_port (src_i, dst_i) =
  let src = Network.host network src_i and dst = Network.host network dst_i in
  ignore rng;
  Host.send_tcp src ~dst_mac:(Host.mac dst) ~dst_ip:(Host.ip dst)
    ~payload_len ~src_port:(fresh_port ()) ~dst_port:80 ()

let new_connections network ~rng ~rate ~duration ?(mode = Any_pair)
    ?(payload_len = 512) () =
  let n_hosts = List.length (Network.hosts network) in
  if n_hosts < 2 then invalid_arg "Flows.new_connections: need >= 2 hosts";
  let fresh_port = port_allocator ~base:10_000 ~limit:60_000 in
  let colocated = hosts_by_switch network in
  let pick () =
    match mode with
    | Any_pair ->
        let a = Rng.int rng n_hosts in
        let b = (a + 1 + Rng.int rng (n_hosts - 1)) mod n_hosts in
        (a, b)
    | Same_switch ->
        if Array.length colocated = 0 then
          invalid_arg
            "Flows.new_connections: Same_switch needs >= 2 hosts on one switch";
        let group = Rng.choice rng colocated in
        let a = Rng.int rng (Array.length group) in
        let b = (a + 1 + Rng.int rng (Array.length group - 1))
                mod Array.length group in
        (group.(a), group.(b))
  in
  poisson network ~rng ~rate ~duration (fun () ->
      connect network ~rng ~payload_len ~fresh_port (pick ()))

let host_joins network ~rng ~rate ~duration =
  let n_hosts = List.length (Network.hosts network) in
  poisson network ~rng ~rate ~duration (fun () ->
      Host.join (Network.host network (Rng.int rng n_hosts)))

let link_flaps network ~rng ~rate ~duration ?(down_time = Time.ms 300) () =
  let plan = Network.plan network in
  let edges = Array.of_list (Graph.edges plan.Builder.graph) in
  if Array.length edges = 0 then ()
  else
    poisson network ~rng ~rate ~duration (fun () ->
        let e = Rng.choice rng edges in
        Network.take_link_down network e.Graph.a e.Graph.b;
        Engine.schedule (Network.engine network) ~after:down_time
          (fun () -> Network.bring_link_up network e.Graph.a e.Graph.b))

(* One flow between an arbitrary pair misses the TCAM at every hop of
   its path (reactive per-switch installation), and one gratuitous ARP
   floods to every switch — so the event rates are scaled down by those
   fan-outs to hit the requested aggregate PACKET_IN rate. *)
let average_hops network ~rng =
  let plan = Network.plan network in
  let graph = plan.Builder.graph in
  let switches = Array.of_list (Graph.switches graph) in
  let n = Array.length switches in
  if n < 2 then 1.
  else begin
    let total = ref 0 and count = ref 0 in
    for _ = 1 to 64 do
      let a = switches.(Rng.int rng n) in
      let b = switches.(Rng.int rng n) in
      match Graph.shortest_path graph a b with
      | Some hops ->
          total := !total + List.length hops;
          incr count
      | None -> ()
    done;
    if !count = 0 then 1. else float_of_int !total /. float_of_int !count
  end

let controlled_mix network ~rng ~packet_in_rate ~duration =
  let hops = Float.max 1. (average_hops network ~rng) in
  let switches =
    float_of_int (Graph.switch_count (Network.plan network).Builder.graph)
  in
  (* ~30% of PACKET_INs are flow-setup misses, ~70% host churn (ARP
     floods re-announcing hosts), with occasional link flaps — the
     "random host joins, link tear downs and flows between hosts" mix
     of Sec VII-A, weighted so the flow-install load stays within even
     ODL's strong-store write capacity at the paper's rates. *)
  new_connections network ~rng
    ~rate:(packet_in_rate *. 0.30 /. hops)
    ~duration ~mode:Any_pair ();
  host_joins network ~rng
    ~rate:(Float.max 0.5 (packet_in_rate *. 0.69 /. switches))
    ~duration;
  (* Link tear-downs are rare events; while a link is down, reactive
     forwarding degrades to flooding, which amplifies the PACKET_IN
     rate — a little goes a long way. *)
  link_flaps network ~rng ~rate:0.1 ~duration ~down_time:(Time.ms 200) ()
