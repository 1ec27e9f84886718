open Jury_packet

type t = {
  engine : Jury_sim.Engine.t;
  index : int;
  mac : Addr.Mac.t;
  ip : Addr.Ipv4.t;
  tx : Frame.t -> unit;
  mutable received_count : int;
}

let create engine ~index ~tx =
  { engine;
    index;
    mac = Addr.Mac.of_host_index index;
    ip = Addr.Ipv4.of_host_index index;
    tx;
    received_count = 0 }

let index t = t.index
let mac t = t.mac
let ip t = t.ip

let join t =
  (* Gratuitous ARP: request for our own address announces the
     MAC/IP binding to the network. *)
  t.tx (Frame.arp_request ~sender:(t.mac, t.ip) ~target:t.ip)

let send_arp_request t ~target =
  t.tx (Frame.arp_request ~sender:(t.mac, t.ip) ~target)

let send_tcp t ~dst_mac ~dst_ip ?flags ?payload_len ~src_port ~dst_port () =
  t.tx
    (Frame.tcp_packet ?flags ?payload_len ~src:(t.mac, t.ip)
       ~dst:(dst_mac, dst_ip) ~src_port ~dst_port ())

let send_udp t ~dst_mac ~dst_ip ?payload_len ~src_port ~dst_port () =
  t.tx
    (Frame.udp_packet ?payload_len ~src:(t.mac, t.ip) ~dst:(dst_mac, dst_ip)
       ~src_port ~dst_port ())

let receive t (frame : Frame.t) =
  t.received_count <- t.received_count + 1;
  match frame.payload with
  | Frame.Arp { op = Frame.Request; sha; spa; tpa; _ }
    when Addr.Ipv4.equal tpa t.ip && not (Addr.Mac.equal sha t.mac) ->
      t.tx (Frame.arp_reply ~sender:(t.mac, t.ip) ~target:(sha, spa))
  | Frame.Arp _ | Frame.Ipv4 _ | Frame.Lldp _ | Frame.Raw _ -> ()

let received_count t = t.received_count
