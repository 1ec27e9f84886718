type arp_op = Request | Reply

type arp = {
  op : arp_op;
  sha : Addr.Mac.t;
  spa : Addr.Ipv4.t;
  tha : Addr.Mac.t;
  tpa : Addr.Ipv4.t;
}

type tcp = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  flags : int;
  window : int;
  payload_len : int;
}

type udp = { src_port : int; dst_port : int; payload_len : int }
type icmp = { ty : int; code : int }
type l4 = Tcp of tcp | Udp of udp | Icmp of icmp | Other_l4 of int * string

type ipv4 = {
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
  proto : int;
  ttl : int;
  dscp : int;
  l4 : l4;
}

type payload =
  | Arp of arp
  | Ipv4 of ipv4
  | Lldp of Lldp.t
  | Raw of int * string

type t = {
  dl_src : Addr.Mac.t;
  dl_dst : Addr.Mac.t;
  vlan : int option;
  payload : payload;
}

let ethertype_arp = 0x0806
let ethertype_ipv4 = 0x0800
let ethertype_lldp = 0x88CC
let ethertype_vlan = 0x8100

let ethertype t =
  match t.payload with
  | Arp _ -> ethertype_arp
  | Ipv4 _ -> ethertype_ipv4
  | Lldp _ -> ethertype_lldp
  | Raw (ty, _) -> ty

let tcp_fin = 1
let tcp_syn = 2
let tcp_rst = 4
let tcp_ack = 16

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let arp_request ~sender:(sha, spa) ~target =
  { dl_src = sha;
    dl_dst = Addr.Mac.broadcast;
    vlan = None;
    payload =
      Arp { op = Request; sha; spa; tha = Addr.Mac.zero; tpa = target } }

let arp_reply ~sender:(sha, spa) ~target:(tha, tpa) =
  { dl_src = sha;
    dl_dst = tha;
    vlan = None;
    payload = Arp { op = Reply; sha; spa; tha; tpa } }

let ip_packet ~src:(smac, sip) ~dst:(dmac, dip) ~proto l4 =
  { dl_src = smac;
    dl_dst = dmac;
    vlan = None;
    payload = Ipv4 { src = sip; dst = dip; proto; ttl = 64; dscp = 0; l4 } }

let tcp_packet ?(flags = tcp_syn) ?(payload_len = 0) ~src ~dst ~src_port
    ~dst_port () =
  ip_packet ~src ~dst ~proto:proto_tcp
    (Tcp { src_port; dst_port; seq = 0; ack = 0; flags; window = 65535;
           payload_len })

let udp_packet ?(payload_len = 0) ~src ~dst ~src_port ~dst_port () =
  ip_packet ~src ~dst ~proto:proto_udp (Udp { src_port; dst_port; payload_len })

let lldp_frame ~src lldp =
  { dl_src = src;
    dl_dst = Addr.Mac.lldp_nearest_bridge;
    vlan = None;
    payload = Lldp lldp }

(* --- Encoding --- *)

let encode_arp w (a : arp) =
  let open Wire_buf.Writer in
  u16 w 1;               (* htype: ethernet *)
  u16 w ethertype_ipv4;  (* ptype *)
  u8 w 6;
  u8 w 4;
  u16 w (match a.op with Request -> 1 | Reply -> 2);
  u48 w (Addr.Mac.to_int a.sha);
  u32 w (Addr.Ipv4.to_int a.spa);
  u48 w (Addr.Mac.to_int a.tha);
  u32 w (Addr.Ipv4.to_int a.tpa)

let encode_l4 w = function
  | Tcp t ->
      let open Wire_buf.Writer in
      u16 w t.src_port;
      u16 w t.dst_port;
      u32 w t.seq;
      u32 w t.ack;
      u8 w 0x50; (* data offset = 5 words *)
      u8 w t.flags;
      u16 w t.window;
      u16 w 0; (* checksum: not modelled at L4 *)
      u16 w 0; (* urgent *)
      u16 w t.payload_len (* carried so decode can restore the model *)
  | Udp u ->
      let open Wire_buf.Writer in
      u16 w u.src_port;
      u16 w u.dst_port;
      u16 w (8 + u.payload_len);
      u16 w 0
  | Icmp i ->
      let open Wire_buf.Writer in
      u8 w i.ty;
      u8 w i.code;
      u16 w 0
  | Other_l4 (_, body) -> Wire_buf.Writer.bytes w body

let encode_ipv4 w (ip : ipv4) =
  let open Wire_buf.Writer in
  let header = Wire_buf.Writer.create () in
  u8 header 0x45; (* v4, IHL 5 *)
  u8 header (ip.dscp lsl 2);
  u16 header 0; (* total length: patched below *)
  u16 header 0; (* identification *)
  u16 header 0x4000; (* DF *)
  u8 header ip.ttl;
  u8 header ip.proto;
  u16 header 0; (* checksum placeholder *)
  u32 header (Addr.Ipv4.to_int ip.src);
  u32 header (Addr.Ipv4.to_int ip.dst);
  let body = Wire_buf.Writer.create () in
  encode_l4 body ip.l4;
  let total = 20 + Wire_buf.Writer.length body in
  patch_u16 header ~pos:2 total;
  let csum = Wire_buf.internet_checksum (contents header) in
  patch_u16 header ~pos:10 csum;
  bytes w (contents header);
  bytes w (contents body)

let encode t =
  let open Wire_buf.Writer in
  let w = create () in
  u48 w (Addr.Mac.to_int t.dl_dst);
  u48 w (Addr.Mac.to_int t.dl_src);
  (match t.vlan with
  | None -> ()
  | Some vid ->
      u16 w ethertype_vlan;
      u16 w (vid land 0xFFF));
  u16 w (ethertype t);
  (match t.payload with
  | Arp a -> encode_arp w a
  | Ipv4 ip -> encode_ipv4 w ip
  | Lldp l -> bytes w (Lldp.encode l)
  | Raw (_, body) -> bytes w body);
  contents w

(* --- Decoding --- *)

let decode_arp r =
  let open Wire_buf.Reader in
  let htype = u16 r "arp htype" in
  let ptype = u16 r "arp ptype" in
  if htype <> 1 || ptype <> ethertype_ipv4 then
    invalid_arg "Frame.decode: unsupported ARP types";
  skip r 2 "arp sizes";
  let op =
    match u16 r "arp op" with
    | 1 -> Request
    | 2 -> Reply
    | n -> invalid_arg (Printf.sprintf "Frame.decode: bad ARP op %d" n)
  in
  let sha = Addr.Mac.of_int (u48 r "arp sha") in
  let spa = Addr.Ipv4.of_int (u32 r "arp spa") in
  let tha = Addr.Mac.of_int (u48 r "arp tha") in
  let tpa = Addr.Ipv4.of_int (u32 r "arp tpa") in
  { op; sha; spa; tha; tpa }

let decode_l4 r proto =
  let open Wire_buf.Reader in
  if proto = proto_tcp then begin
    let src_port = u16 r "tcp sport" in
    let dst_port = u16 r "tcp dport" in
    let seq = u32 r "tcp seq" in
    let ack = u32 r "tcp ack" in
    skip r 1 "tcp offset";
    let flags = u8 r "tcp flags" in
    let window = u16 r "tcp window" in
    skip r 4 "tcp csum+urg";
    let payload_len = u16 r "tcp plen" in
    Tcp { src_port; dst_port; seq; ack; flags; window; payload_len }
  end
  else if proto = proto_udp then begin
    let src_port = u16 r "udp sport" in
    let dst_port = u16 r "udp dport" in
    let len = u16 r "udp len" in
    skip r 2 "udp csum";
    Udp { src_port; dst_port; payload_len = max 0 (len - 8) }
  end
  else if proto = proto_icmp then begin
    let ty = u8 r "icmp type" in
    let code = u8 r "icmp code" in
    skip r 2 "icmp csum";
    Icmp { ty; code }
  end
  else Other_l4 (proto, rest r)

let decode_ipv4 r =
  let open Wire_buf.Reader in
  let vihl = u8 r "ip vihl" in
  if vihl lsr 4 <> 4 then invalid_arg "Frame.decode: not IPv4";
  let dscp = u8 r "ip tos" lsr 2 in
  skip r 6 "ip len+id+frag";
  let ttl = u8 r "ip ttl" in
  let proto = u8 r "ip proto" in
  skip r 2 "ip csum";
  let src = Addr.Ipv4.of_int (u32 r "ip src") in
  let dst = Addr.Ipv4.of_int (u32 r "ip dst") in
  (* Options unsupported: IHL is always 5 in this model. *)
  if vihl land 0xF <> 5 then invalid_arg "Frame.decode: IP options";
  let l4 = decode_l4 r proto in
  { src; dst; proto; ttl; dscp; l4 }

let decode s =
  let open Wire_buf.Reader in
  let r = of_string s in
  let dl_dst = Addr.Mac.of_int (u48 r "eth dst") in
  let dl_src = Addr.Mac.of_int (u48 r "eth src") in
  let ty0 = u16 r "ethertype" in
  let vlan, ty =
    if ty0 = ethertype_vlan then begin
      let tci = u16 r "vlan tci" in
      (Some (tci land 0xFFF), u16 r "inner ethertype")
    end
    else (None, ty0)
  in
  let payload =
    if ty = ethertype_arp then Arp (decode_arp r)
    else if ty = ethertype_ipv4 then Ipv4 (decode_ipv4 r)
    else if ty = ethertype_lldp then Lldp (Lldp.decode (rest r))
    else Raw (ty, rest r)
  in
  { dl_src; dl_dst; vlan; payload }

(* --- Sizes: what [encode] writes, counted without writing it --- *)

let l4_length = function
  | Tcp _ -> 22
  | Udp _ -> 8
  | Icmp _ -> 4
  | Other_l4 (_, body) -> String.length body

let encoded_length t =
  14
  + (match t.vlan with None -> 0 | Some _ -> 4)
  +
  match t.payload with
  | Arp _ -> 28
  | Ipv4 ip -> 20 + l4_length ip.l4
  | Lldp l -> Lldp.encoded_length l
  | Raw (_, body) -> String.length body

let size_on_wire t =
  let base = encoded_length t in
  match t.payload with
  | Ipv4 { l4 = Tcp { payload_len; _ }; _ } -> base + payload_len
  | Ipv4 { l4 = Udp { payload_len; _ }; _ } -> base + payload_len
  | _ -> base

let pp_l4 fmt = function
  | Tcp t ->
      Format.fprintf fmt "tcp %d->%d flags=%d len=%d" t.src_port t.dst_port
        t.flags t.payload_len
  | Udp u -> Format.fprintf fmt "udp %d->%d len=%d" u.src_port u.dst_port
               u.payload_len
  | Icmp i -> Format.fprintf fmt "icmp %d/%d" i.ty i.code
  | Other_l4 (p, _) -> Format.fprintf fmt "proto=%d" p

let pp fmt t =
  Format.fprintf fmt "[%a -> %a " Addr.Mac.pp t.dl_src Addr.Mac.pp t.dl_dst;
  (match t.payload with
  | Arp a ->
      Format.fprintf fmt "arp %s %a(%a) -> %a"
        (match a.op with Request -> "who-has" | Reply -> "is-at")
        Addr.Ipv4.pp a.spa Addr.Mac.pp a.sha Addr.Ipv4.pp a.tpa
  | Ipv4 ip ->
      Format.fprintf fmt "%a -> %a %a" Addr.Ipv4.pp ip.src Addr.Ipv4.pp ip.dst
        pp_l4 ip.l4
  | Lldp l -> Lldp.pp fmt l
  | Raw (ty, body) ->
      Format.fprintf fmt "raw ty=0x%04x %d bytes" ty (String.length body));
  Format.fprintf fmt "]"

let equal a b = encode a = encode b
