open Jury_packet

type t = {
  in_port : Of_types.Port.t option;
  dl_src : Addr.Mac.t option;
  dl_dst : Addr.Mac.t option;
  dl_vlan : int option option;
  dl_type : int option;
  nw_src : (Addr.Ipv4.t * int) option;
  nw_dst : (Addr.Ipv4.t * int) option;
  nw_proto : int option;
  nw_tos : int option;
  tp_src : int option;
  tp_dst : int option;
}

let wildcard_all =
  { in_port = None;
    dl_src = None;
    dl_dst = None;
    dl_vlan = None;
    dl_type = None;
    nw_src = None;
    nw_dst = None;
    nw_proto = None;
    nw_tos = None;
    tp_src = None;
    tp_dst = None }

let ethertype_arp = 0x0806
let ethertype_ipv4 = 0x0800

let frame_nw (frame : Frame.t) =
  match frame.payload with
  | Frame.Ipv4 ip -> Some (ip.src, ip.dst, ip.proto, ip.dscp)
  | Frame.Arp a ->
      (* OF 1.0 reuses nw_src/nw_dst for ARP SPA/TPA and nw_proto for
         the ARP opcode. *)
      let op = match a.op with Frame.Request -> 1 | Frame.Reply -> 2 in
      Some (a.spa, a.tpa, op, 0)
  | Frame.Lldp _ | Frame.Raw _ -> None

let frame_tp (frame : Frame.t) =
  match frame.payload with
  | Frame.Ipv4 { l4 = Frame.Tcp t; _ } -> Some (t.src_port, t.dst_port)
  | Frame.Ipv4 { l4 = Frame.Udp u; _ } -> Some (u.src_port, u.dst_port)
  | Frame.Ipv4 { l4 = Frame.Icmp i; _ } -> Some (i.ty, i.code)
  | Frame.Ipv4 { l4 = Frame.Other_l4 _; _ } | Frame.Arp _ | Frame.Lldp _
  | Frame.Raw _ ->
      None

let exact_of_frame ~in_port (frame : Frame.t) =
  let ty = Frame.ethertype frame in
  let nw = frame_nw frame in
  let tp = frame_tp frame in
  { in_port = Some in_port;
    dl_src = Some frame.dl_src;
    dl_dst = Some frame.dl_dst;
    dl_vlan = Some frame.vlan;
    dl_type = Some ty;
    nw_src = Option.map (fun (s, _, _, _) -> (s, 32)) nw;
    nw_dst = Option.map (fun (_, d, _, _) -> (d, 32)) nw;
    nw_proto = Option.map (fun (_, _, p, _) -> p) nw;
    nw_tos = Option.map (fun (_, _, _, t) -> t) nw;
    tp_src = Option.map fst tp;
    tp_dst = Option.map snd tp }

let l2_pair ~src ~dst =
  { wildcard_all with dl_src = Some src; dl_dst = Some dst }

let l2_dst ~dst = { wildcard_all with dl_dst = Some dst }

let field_matches v = function None -> true | Some want -> want = v

let matches t ~in_port (frame : Frame.t) =
  field_matches in_port t.in_port
  && field_matches frame.dl_src t.dl_src
  && field_matches frame.dl_dst t.dl_dst
  && (match t.dl_vlan with None -> true | Some want -> want = frame.vlan)
  && field_matches (Frame.ethertype frame) t.dl_type
  &&
  let nw = frame_nw frame in
  let nw_field get pred =
    match get t with
    | None -> true
    | Some want -> ( match nw with None -> false | Some v -> pred want v)
  in
  nw_field
    (fun t -> t.nw_src)
    (fun (prefix, bits) (s, _, _, _) ->
      Addr.Ipv4.matches_prefix s ~prefix ~bits)
  && nw_field
       (fun t -> t.nw_dst)
       (fun (prefix, bits) (_, d, _, _) ->
         Addr.Ipv4.matches_prefix d ~prefix ~bits)
  && nw_field (fun t -> t.nw_proto) (fun want (_, _, p, _) -> want = p)
  && nw_field (fun t -> t.nw_tos) (fun want (_, _, _, tos) -> want = tos)
  &&
  let tp = frame_tp frame in
  let tp_field get pick =
    match get t with
    | None -> true
    | Some want -> ( match tp with None -> false | Some v -> want = pick v)
  in
  tp_field (fun t -> t.tp_src) fst && tp_field (fun t -> t.tp_dst) snd

let hierarchy_ok t =
  let nw_set =
    t.nw_src <> None || t.nw_dst <> None || t.nw_proto <> None
    || t.nw_tos <> None
  in
  let tp_set = t.tp_src <> None || t.tp_dst <> None in
  let nw_backed =
    match t.dl_type with
    | Some ty -> ty = ethertype_ipv4 || ty = ethertype_arp
    | None -> false
  in
  let tp_backed =
    nw_backed
    && t.dl_type = Some ethertype_ipv4
    && (match t.nw_proto with Some (1 | 6 | 17) -> true | Some _ | None -> false)
  in
  ((not nw_set) || nw_backed) && ((not tp_set) || tp_backed)

let strip_invalid_fields t =
  let nw_backed =
    match t.dl_type with
    | Some ty -> ty = ethertype_ipv4 || ty = ethertype_arp
    | None -> false
  in
  let t =
    if nw_backed then t
    else { t with nw_src = None; nw_dst = None; nw_proto = None;
                  nw_tos = None }
  in
  let tp_backed =
    nw_backed
    && t.dl_type = Some ethertype_ipv4
    && (match t.nw_proto with Some (1 | 6 | 17) -> true | Some _ | None -> false)
  in
  if tp_backed then t else { t with tp_src = None; tp_dst = None }

let more_specific a b =
  let sub eq ga gb =
    match (ga a, gb b) with
    | _, None -> true
    | None, Some _ -> false
    | Some va, Some vb -> eq va vb
  in
  let prefix_sub (pa, ba) (pb, bb) =
    ba >= bb && Addr.Ipv4.matches_prefix pa ~prefix:pb ~bits:bb
  in
  sub ( = ) (fun t -> t.in_port) (fun t -> t.in_port)
  && sub Addr.Mac.equal (fun t -> t.dl_src) (fun t -> t.dl_src)
  && sub Addr.Mac.equal (fun t -> t.dl_dst) (fun t -> t.dl_dst)
  && sub ( = ) (fun t -> t.dl_vlan) (fun t -> t.dl_vlan)
  && sub ( = ) (fun t -> t.dl_type) (fun t -> t.dl_type)
  && sub prefix_sub (fun t -> t.nw_src) (fun t -> t.nw_src)
  && sub prefix_sub (fun t -> t.nw_dst) (fun t -> t.nw_dst)
  && sub ( = ) (fun t -> t.nw_proto) (fun t -> t.nw_proto)
  && sub ( = ) (fun t -> t.nw_tos) (fun t -> t.nw_tos)
  && sub ( = ) (fun t -> t.tp_src) (fun t -> t.tp_src)
  && sub ( = ) (fun t -> t.tp_dst) (fun t -> t.tp_dst)

let compare = Stdlib.compare

(* Field by field, where the polymorphic versions walk every option
   block: the flow memo calls both once per rule a replica plans. The
   record patterns name every field, so a new one cannot be left out.
   MACs and IPv4 addresses are compared as the ints they are. *)
let equal_int (a : int option) b =
  match (a, b) with
  | Some x, Some y -> x = y
  | None, None -> true
  | _ -> false

let equal_prefix (a : (Addr.Ipv4.t * int) option)
    (b : (Addr.Ipv4.t * int) option) =
  match (a, b) with
  | Some (p, bits), Some (p', bits') ->
      (p :> int) = (p' :> int) && bits = bits'
  | None, None -> true
  | _ -> false

let equal a b =
  let { in_port; dl_src; dl_dst; dl_vlan; dl_type; nw_src; nw_dst; nw_proto;
        nw_tos; tp_src; tp_dst } =
    a
  in
  a == b
  || equal_int in_port b.in_port
     && equal_int (dl_src :> int option) (b.dl_src :> int option)
     && equal_int (dl_dst :> int option) (b.dl_dst :> int option)
     && (match (dl_vlan, b.dl_vlan) with
        | Some v, Some v' -> equal_int v v'
        | None, None -> true
        | _ -> false)
     && equal_int dl_type b.dl_type
     && equal_prefix nw_src b.nw_src
     && equal_prefix nw_dst b.nw_dst
     && equal_int nw_proto b.nw_proto
     && equal_int nw_tos b.nw_tos
     && equal_int tp_src b.tp_src
     && equal_int tp_dst b.tp_dst

let hash { in_port; dl_src; dl_dst; dl_vlan; dl_type; nw_src; nw_dst;
           nw_proto; nw_tos; tp_src; tp_dst } =
  let mix h v =
    let h = (h lxor v) * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
  in
  let int = function None -> -1 | Some v -> v in
  let mac = function None -> -1 | Some m -> Addr.Mac.to_int m in
  let prefix = function
    | None -> -1
    | Some (p, bits) -> (Addr.Ipv4.to_int p lsl 6) lxor bits
  in
  let vlan = function None -> -1 | Some None -> -2 | Some (Some v) -> v in
  let h = mix (mix (mix 0 (int in_port)) (mac dl_src)) (mac dl_dst) in
  let h = mix (mix (mix h (vlan dl_vlan)) (int dl_type)) (prefix nw_src) in
  let h = mix (mix (mix h (prefix nw_dst)) (int nw_proto)) (int nw_tos) in
  mix (mix h (int tp_src)) (int tp_dst) land max_int

(* Built without Format or C integer formatting: [Values.Flow.key]
   renders every flow rule through here. *)
let add_to_buffer b t =
  let first = ref true in
  let field name add = function
    | None -> ()
    | Some v ->
        if not !first then Buffer.add_char b ',';
        first := false;
        Buffer.add_string b name;
        Buffer.add_char b '=';
        add v
  in
  let str s = Buffer.add_string b s in
  let int v = Addr.add_decimal b v in
  let prefix (p, bits) =
    str (Addr.Ipv4.to_string p);
    Buffer.add_char b '/';
    int bits
  in
  Buffer.add_char b '{';
  field "in_port"
    (fun p ->
      if Of_types.Port.is_physical p then int p
      else str (Of_types.Port.to_string p))
    t.in_port;
  field "dl_src" (fun m -> str (Addr.Mac.to_string m)) t.dl_src;
  field "dl_dst" (fun m -> str (Addr.Mac.to_string m)) t.dl_dst;
  field "dl_vlan"
    (function None -> str "untagged" | Some v -> int v)
    t.dl_vlan;
  field "dl_type"
    (fun v ->
      if v >= 0 && v <= 0xFFFF then begin
        let hex = Bytes.of_string "0x0000" in
        Addr.set_hex_byte hex 2 (v lsr 8);
        Addr.set_hex_byte hex 4 v;
        Buffer.add_bytes b hex
      end
      else str (Printf.sprintf "0x%04x" v))
    t.dl_type;
  field "nw_src" prefix t.nw_src;
  field "nw_dst" prefix t.nw_dst;
  field "nw_proto" int t.nw_proto;
  field "nw_tos" int t.nw_tos;
  field "tp_src" int t.tp_src;
  field "tp_dst" int t.tp_dst;
  if !first then Buffer.add_char b '*';
  Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 96 in
  add_to_buffer b t;
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
