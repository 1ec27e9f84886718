open Jury_packet

type t = {
  present : int;
  in_port : Of_types.Port.t;
  dl_src : Addr.Mac.t;
  dl_dst : Addr.Mac.t;
  dl_vlan : int;
  dl_type : int;
  nw_src : Addr.Ipv4.t;
  nw_src_bits : int;
  nw_dst : Addr.Ipv4.t;
  nw_dst_bits : int;
  nw_proto : int;
  nw_tos : int;
  tp_src : int;
  tp_dst : int;
}

module Bit = struct
  let in_port = 1 lsl 0
  let dl_vlan = 1 lsl 1
  let dl_src = 1 lsl 2
  let dl_dst = 1 lsl 3
  let dl_type = 1 lsl 4
  let nw_proto = 1 lsl 5
  let tp_src = 1 lsl 6
  let tp_dst = 1 lsl 7
  (* OF 1.0 bits 8-19 are the nw prefix mask lengths, 20 is VLAN PCP. *)
  let nw_tos = 1 lsl 21
  let nw_src = 1 lsl 22
  let nw_dst = 1 lsl 23
  let untagged = 1 lsl 24

  let wire_fields =
    in_port lor dl_vlan lor dl_src lor dl_dst lor dl_type lor nw_proto
    lor tp_src lor tp_dst lor nw_tos
end

let nw_fields = Bit.nw_src lor Bit.nw_dst lor Bit.nw_proto lor Bit.nw_tos
let tp_fields = Bit.tp_src lor Bit.tp_dst
let ip0 = Addr.Ipv4.of_int 0

let wildcard_all =
  { present = 0; in_port = 0; dl_src = Addr.Mac.zero; dl_dst = Addr.Mac.zero;
    dl_vlan = 0; dl_type = 0; nw_src = ip0; nw_src_bits = 0; nw_dst = ip0;
    nw_dst_bits = 0; nw_proto = 0; nw_tos = 0; tp_src = 0; tp_dst = 0 }

(* The wire's 6-bit mask field would carry any other length as a
   different prefix. *)
let check_prefix fn present bit bits =
  if present land bit <> 0 && (bits < 0 || bits > 32) then
    invalid_arg (fn ^ ": prefix length outside 0..32")

let of_fields ~present ~in_port ~dl_src ~dl_dst ~dl_vlan ~dl_type ~nw_src
    ~nw_src_bits ~nw_dst ~nw_dst_bits ~nw_proto ~nw_tos ~tp_src ~tp_dst =
  check_prefix "Of_match.of_fields" present Bit.nw_src nw_src_bits;
  check_prefix "Of_match.of_fields" present Bit.nw_dst nw_dst_bits;
  let present =
    if present land Bit.dl_vlan = 0 then present land lnot Bit.untagged
    else present
  in
  let int bit v = if present land bit = 0 then 0 else v in
  { present;
    in_port = int Bit.in_port in_port;
    dl_src = (if present land Bit.dl_src = 0 then Addr.Mac.zero else dl_src);
    dl_dst = (if present land Bit.dl_dst = 0 then Addr.Mac.zero else dl_dst);
    dl_vlan =
      (if present land Bit.untagged = 0 then int Bit.dl_vlan dl_vlan else 0);
    dl_type = int Bit.dl_type dl_type;
    nw_src = (if present land Bit.nw_src = 0 then ip0 else nw_src);
    nw_src_bits = int Bit.nw_src nw_src_bits;
    nw_dst = (if present land Bit.nw_dst = 0 then ip0 else nw_dst);
    nw_dst_bits = int Bit.nw_dst nw_dst_bits;
    nw_proto = int Bit.nw_proto nw_proto;
    nw_tos = int Bit.nw_tos nw_tos;
    tp_src = int Bit.tp_src tp_src;
    tp_dst = int Bit.tp_dst tp_dst }

let make ?in_port ?dl_src ?dl_dst ?dl_vlan ?dl_type ?nw_src ?nw_dst ?nw_proto
    ?nw_tos ?tp_src ?tp_dst () =
  let present = ref 0 in
  let get bit zero = function
    | None -> zero
    | Some v ->
        present := !present lor bit;
        v
  in
  let in_port = get Bit.in_port 0 in_port in
  let dl_src = get Bit.dl_src Addr.Mac.zero dl_src in
  let dl_dst = get Bit.dl_dst Addr.Mac.zero dl_dst in
  let dl_vlan =
    match get Bit.dl_vlan (Some 0) dl_vlan with
    | None ->
        present := !present lor Bit.untagged;
        0
    | Some v -> v
  in
  let dl_type = get Bit.dl_type 0 dl_type in
  let nw_src, nw_src_bits = get Bit.nw_src (ip0, 0) nw_src in
  let nw_dst, nw_dst_bits = get Bit.nw_dst (ip0, 0) nw_dst in
  let nw_proto = get Bit.nw_proto 0 nw_proto in
  let nw_tos = get Bit.nw_tos 0 nw_tos in
  let tp_src = get Bit.tp_src 0 tp_src in
  let tp_dst = get Bit.tp_dst 0 tp_dst in
  check_prefix "Of_match.make" !present Bit.nw_src nw_src_bits;
  check_prefix "Of_match.make" !present Bit.nw_dst nw_dst_bits;
  { present = !present; in_port; dl_src; dl_dst; dl_vlan; dl_type; nw_src;
    nw_src_bits; nw_dst; nw_dst_bits; nw_proto; nw_tos; tp_src; tp_dst }

let ethertype_arp = 0x0806
let ethertype_ipv4 = 0x0800
let arp_opcode : Frame.arp_op -> int = function Request -> 1 | Reply -> 2

(* One record per call, with no option, tuple or closure beside it:
   all seven replicas build this for every IPv4 PACKET_IN. OF 1.0
   reuses nw_src/nw_dst for ARP SPA/TPA and nw_proto for the ARP
   opcode; ICMP's type and code ride in tp_src/tp_dst. *)
let exact_of_frame ~in_port (frame : Frame.t) =
  let present =
    Bit.in_port lor Bit.dl_src lor Bit.dl_dst lor Bit.dl_vlan lor Bit.dl_type
  in
  let present, dl_vlan =
    match frame.vlan with
    | None -> (present lor Bit.untagged, 0)
    | Some v -> (present, v)
  in
  let present, nw_src, nw_dst, nw_proto, nw_tos =
    match frame.payload with
    | Frame.Ipv4 ip ->
        (present lor nw_fields, ip.src, ip.dst, ip.proto, ip.dscp)
    | Frame.Arp a -> (present lor nw_fields, a.spa, a.tpa, arp_opcode a.op, 0)
    | Frame.Lldp _ | Frame.Raw _ -> (present, ip0, ip0, 0, 0)
  in
  let present, tp_src, tp_dst =
    match frame.payload with
    | Frame.Ipv4 { l4 = Frame.Tcp t; _ } ->
        (present lor tp_fields, t.src_port, t.dst_port)
    | Frame.Ipv4 { l4 = Frame.Udp u; _ } ->
        (present lor tp_fields, u.src_port, u.dst_port)
    | Frame.Ipv4 { l4 = Frame.Icmp i; _ } ->
        (present lor tp_fields, i.ty, i.code)
    | Frame.Ipv4 { l4 = Frame.Other_l4 _; _ } | Frame.Arp _ | Frame.Lldp _
    | Frame.Raw _ ->
        (present, 0, 0)
  in
  let nw_bits = if present land Bit.nw_src = 0 then 0 else 32 in
  { present; in_port; dl_src = frame.dl_src; dl_dst = frame.dl_dst; dl_vlan;
    dl_type = Frame.ethertype frame; nw_src; nw_src_bits = nw_bits; nw_dst;
    nw_dst_bits = nw_bits; nw_proto; nw_tos; tp_src; tp_dst }

let l2_pair ~src ~dst =
  { wildcard_all with
    present = Bit.dl_src lor Bit.dl_dst; dl_src = src; dl_dst = dst }

let l2_dst ~dst = { wildcard_all with present = Bit.dl_dst; dl_dst = dst }

let has t bit = t.present land bit <> 0

let nw_matches t ~src ~dst ~proto ~tos =
  ((not (has t Bit.nw_src))
  || Addr.Ipv4.matches_prefix src ~prefix:t.nw_src ~bits:t.nw_src_bits)
  && ((not (has t Bit.nw_dst))
     || Addr.Ipv4.matches_prefix dst ~prefix:t.nw_dst ~bits:t.nw_dst_bits)
  && ((not (has t Bit.nw_proto)) || t.nw_proto = proto)
  && ((not (has t Bit.nw_tos)) || t.nw_tos = tos)

let tp_matches t ~src ~dst =
  ((not (has t Bit.tp_src)) || t.tp_src = src)
  && ((not (has t Bit.tp_dst)) || t.tp_dst = dst)

let matches t ~in_port (frame : Frame.t) =
  ((not (has t Bit.in_port)) || t.in_port = in_port)
  && ((not (has t Bit.dl_src)) || Addr.Mac.equal t.dl_src frame.dl_src)
  && ((not (has t Bit.dl_dst)) || Addr.Mac.equal t.dl_dst frame.dl_dst)
  && ((not (has t Bit.dl_vlan))
     ||
     match frame.vlan with
     | None -> has t Bit.untagged
     | Some v -> (not (has t Bit.untagged)) && t.dl_vlan = v)
  && ((not (has t Bit.dl_type)) || t.dl_type = Frame.ethertype frame)
  && (t.present land (nw_fields lor tp_fields) = 0
     ||
     match frame.payload with
     | Frame.Ipv4 ip -> (
         nw_matches t ~src:ip.src ~dst:ip.dst ~proto:ip.proto ~tos:ip.dscp
         &&
         match ip.l4 with
         | Frame.Tcp p -> tp_matches t ~src:p.src_port ~dst:p.dst_port
         | Frame.Udp p -> tp_matches t ~src:p.src_port ~dst:p.dst_port
         | Frame.Icmp i -> tp_matches t ~src:i.ty ~dst:i.code
         | Frame.Other_l4 _ -> t.present land tp_fields = 0)
     | Frame.Arp a ->
         nw_matches t ~src:a.spa ~dst:a.tpa ~proto:(arp_opcode a.op) ~tos:0
         && t.present land tp_fields = 0
     | Frame.Lldp _ | Frame.Raw _ -> false)

let nw_backed t =
  has t Bit.dl_type
  && (t.dl_type = ethertype_ipv4 || t.dl_type = ethertype_arp)

let tp_backed t =
  nw_backed t
  && t.dl_type = ethertype_ipv4
  && has t Bit.nw_proto
  && (match t.nw_proto with 1 | 6 | 17 -> true | _ -> false)

let hierarchy_ok t =
  (t.present land nw_fields = 0 || nw_backed t)
  && (t.present land tp_fields = 0 || tp_backed t)

let strip_invalid_fields t =
  let t =
    if nw_backed t || t.present land nw_fields = 0 then t
    else
      { t with
        present = t.present land lnot nw_fields; nw_src = ip0;
        nw_src_bits = 0; nw_dst = ip0; nw_dst_bits = 0; nw_proto = 0;
        nw_tos = 0 }
  in
  if tp_backed t || t.present land tp_fields = 0 then t
  else
    { t with present = t.present land lnot tp_fields; tp_src = 0; tp_dst = 0 }

(* Each field of [b] that is set must be set in [a] and cover it. *)
let more_specific a b =
  let covers bit same = (not (has b bit)) || (has a bit && same) in
  let prefix ~pa ~ba ~pb ~bb =
    ba >= bb && Addr.Ipv4.matches_prefix pa ~prefix:pb ~bits:bb
  in
  covers Bit.in_port (a.in_port = b.in_port)
  && covers Bit.dl_src (Addr.Mac.equal a.dl_src b.dl_src)
  && covers Bit.dl_dst (Addr.Mac.equal a.dl_dst b.dl_dst)
  && covers Bit.dl_vlan
       (has a Bit.untagged = has b Bit.untagged && a.dl_vlan = b.dl_vlan)
  && covers Bit.dl_type (a.dl_type = b.dl_type)
  && covers Bit.nw_src
       (has a Bit.nw_src
       && prefix ~pa:a.nw_src ~ba:a.nw_src_bits ~pb:b.nw_src
            ~bb:b.nw_src_bits)
  && covers Bit.nw_dst
       (has a Bit.nw_dst
       && prefix ~pa:a.nw_dst ~ba:a.nw_dst_bits ~pb:b.nw_dst
            ~bb:b.nw_dst_bits)
  && covers Bit.nw_proto (a.nw_proto = b.nw_proto)
  && covers Bit.nw_tos (a.nw_tos = b.nw_tos)
  && covers Bit.tp_src (a.tp_src = b.tp_src)
  && covers Bit.tp_dst (a.tp_dst = b.tp_dst)

(* Unset fields are 0, so field-by-field int equality is semantic
   equality. The record pattern names every field, so a new one cannot
   be left out. *)
let equal a b =
  let { present; in_port; dl_src; dl_dst; dl_vlan; dl_type; nw_src;
        nw_src_bits; nw_dst; nw_dst_bits; nw_proto; nw_tos; tp_src; tp_dst } =
    a
  in
  a == b
  || present = b.present && in_port = b.in_port
     && (dl_src :> int) = (b.dl_src :> int)
     && (dl_dst :> int) = (b.dl_dst :> int)
     && dl_vlan = b.dl_vlan && dl_type = b.dl_type
     && (nw_src :> int) = (b.nw_src :> int)
     && nw_src_bits = b.nw_src_bits
     && (nw_dst :> int) = (b.nw_dst :> int)
     && nw_dst_bits = b.nw_dst_bits && nw_proto = b.nw_proto
     && nw_tos = b.nw_tos && tp_src = b.tp_src && tp_dst = b.tp_dst

let compare = Stdlib.compare

let hash { present; in_port; dl_src; dl_dst; dl_vlan; dl_type; nw_src;
           nw_src_bits; nw_dst; nw_dst_bits; nw_proto; nw_tos; tp_src;
           tp_dst } =
  let mix h v =
    let h = (h lxor v) * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
  in
  let h = mix (mix (mix present in_port) (dl_src :> int)) (dl_dst :> int) in
  let h = mix (mix (mix h dl_vlan) dl_type) (nw_src :> int) in
  let h = mix (mix (mix h nw_src_bits) (nw_dst :> int)) nw_dst_bits in
  let h = mix (mix (mix h nw_proto) nw_tos) tp_src in
  mix h tp_dst land max_int

(* Built without Format or C integer formatting: [Values.Flow.key]
   renders every flow rule through here. *)
let add_to_buffer b t =
  let first = ref true in
  let field bit name =
    let set = has t bit in
    if set then begin
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b name;
      Buffer.add_char b '='
    end;
    set
  in
  let str s = Buffer.add_string b s in
  let int v = Addr.add_decimal b v in
  let prefix p bits =
    str (Addr.Ipv4.to_string p);
    Buffer.add_char b '/';
    int bits
  in
  Buffer.add_char b '{';
  if field Bit.in_port "in_port" then
    if Of_types.Port.is_physical t.in_port then int t.in_port
    else str (Of_types.Port.to_string t.in_port);
  if field Bit.dl_src "dl_src" then str (Addr.Mac.to_string t.dl_src);
  if field Bit.dl_dst "dl_dst" then str (Addr.Mac.to_string t.dl_dst);
  if field Bit.dl_vlan "dl_vlan" then
    if has t Bit.untagged then str "untagged" else int t.dl_vlan;
  if field Bit.dl_type "dl_type" then begin
    let v = t.dl_type in
    if v >= 0 && v <= 0xFFFF then begin
      let hex = Bytes.of_string "0x0000" in
      Addr.set_hex_byte hex 2 (v lsr 8);
      Addr.set_hex_byte hex 4 v;
      Buffer.add_bytes b hex
    end
    else str (Printf.sprintf "0x%04x" v)
  end;
  if field Bit.nw_src "nw_src" then prefix t.nw_src t.nw_src_bits;
  if field Bit.nw_dst "nw_dst" then prefix t.nw_dst t.nw_dst_bits;
  if field Bit.nw_proto "nw_proto" then int t.nw_proto;
  if field Bit.nw_tos "nw_tos" then int t.nw_tos;
  if field Bit.tp_src "tp_src" then int t.tp_src;
  if field Bit.tp_dst "tp_dst" then int t.tp_dst;
  if !first then Buffer.add_char b '*';
  Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 96 in
  add_to_buffer b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
