(* Tests for addresses, the binary buffers and the frame codec. *)

open Jury_packet
module Mac = Addr.Mac
module Ipv4 = Addr.Ipv4

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Addresses --- *)

let test_mac_roundtrip () =
  let m = Mac.of_string "aa:bb:cc:dd:ee:ff" in
  check_str "format" "aa:bb:cc:dd:ee:ff" (Mac.to_string m);
  check_int "int" 0xAABBCCDDEEFF (Mac.to_int m);
  check_bool "broadcast" true (Mac.is_broadcast Mac.broadcast);
  check_bool "not broadcast" false (Mac.is_broadcast m);
  check_bool "multicast lldp" true (Mac.is_multicast Mac.lldp_nearest_bridge)

let test_mac_invalid () =
  Alcotest.check_raises "short" (Invalid_argument "Mac.of_string: need 6 octets")
    (fun () -> ignore (Mac.of_string "aa:bb"));
  Alcotest.check_raises "bad octet" (Invalid_argument "Mac.of_string: bad octet")
    (fun () -> ignore (Mac.of_string "zz:bb:cc:dd:ee:ff"))

let test_mac_host_index () =
  let m0 = Mac.of_host_index 0 and m1 = Mac.of_host_index 1 in
  check_bool "distinct" false (Mac.equal m0 m1);
  check_bool "locally administered" true (Mac.to_int m0 lsr 40 = 0x02)

let test_ipv4_roundtrip () =
  let ip = Ipv4.of_string "10.1.2.3" in
  check_str "format" "10.1.2.3" (Ipv4.to_string ip);
  check_int "int" 0x0A010203 (Ipv4.to_int ip);
  check_str "host index scheme" "10.0.0.1" (Ipv4.to_string (Ipv4.of_host_index 0))

let test_ipv4_prefix () =
  let ip = Ipv4.of_string "10.1.2.3" in
  let prefix = Ipv4.of_string "10.1.0.0" in
  check_bool "in /16" true (Ipv4.matches_prefix ip ~prefix ~bits:16);
  check_bool "not in /24" false (Ipv4.matches_prefix ip ~prefix ~bits:24);
  check_bool "/0 matches all" true
    (Ipv4.matches_prefix ip ~prefix:(Ipv4.of_string "192.168.0.0") ~bits:0);
  check_bool "/32 exact" true (Ipv4.matches_prefix ip ~prefix:ip ~bits:32)

(* --- Wire buffers --- *)

let test_writer_reader () =
  let w = Wire_buf.Writer.create () in
  Wire_buf.Writer.u8 w 0xAB;
  Wire_buf.Writer.u16 w 0x1234;
  Wire_buf.Writer.u32 w 0xDEADBEEF;
  Wire_buf.Writer.u48 w 0xAABBCCDDEEFF;
  Wire_buf.Writer.u64 w 0x1122334455667788L;
  Wire_buf.Writer.bytes w "hi";
  let r = Wire_buf.Reader.of_string (Wire_buf.Writer.contents w) in
  check_int "u8" 0xAB (Wire_buf.Reader.u8 r "t");
  check_int "u16" 0x1234 (Wire_buf.Reader.u16 r "t");
  check_int "u32" 0xDEADBEEF (Wire_buf.Reader.u32 r "t");
  check_int "u48" 0xAABBCCDDEEFF (Wire_buf.Reader.u48 r "t");
  check_bool "u64" true (Wire_buf.Reader.u64 r "t" = 0x1122334455667788L);
  check_str "bytes" "hi" (Wire_buf.Reader.bytes r 2 "t");
  check_int "exhausted" 0 (Wire_buf.Reader.remaining r)

let test_reader_truncated () =
  let r = Wire_buf.Reader.of_string "\x01" in
  Alcotest.check_raises "truncated" (Wire_buf.Truncated "field") (fun () ->
      ignore (Wire_buf.Reader.u16 r "field"))

let test_patch_u16 () =
  let w = Wire_buf.Writer.create () in
  Wire_buf.Writer.u16 w 0;
  Wire_buf.Writer.u16 w 0x5678;
  Wire_buf.Writer.patch_u16 w ~pos:0 0x1234;
  let r = Wire_buf.Reader.of_string (Wire_buf.Writer.contents w) in
  check_int "patched" 0x1234 (Wire_buf.Reader.u16 r "t");
  check_int "untouched" 0x5678 (Wire_buf.Reader.u16 r "t")

let test_checksum () =
  (* RFC 1071 example: checksum of 0x0001 0xf203 0xf4f5 0xf6f7. *)
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "rfc1071" (lnot 0xddf2 land 0xFFFF)
    (Wire_buf.internet_checksum data)

(* --- LLDP --- *)

let test_lldp_roundtrip () =
  let l = Lldp.make ~system_name:"ctrl-3" ~chassis_id:42L ~port_id:7 ~ttl:120 () in
  let l' = Lldp.decode (Lldp.encode l) in
  check_bool "roundtrip" true (Lldp.equal l l');
  let bare = Lldp.make ~chassis_id:1L ~port_id:1 ~ttl:1 () in
  check_bool "no sysname roundtrip" true
    (Lldp.equal bare (Lldp.decode (Lldp.encode bare)))

(* --- Frames --- *)

let host i = (Mac.of_host_index i, Ipv4.of_host_index i)

let test_arp_frames () =
  let m0, i0 = host 0 and m1, i1 = host 1 in
  let req = Frame.arp_request ~sender:(m0, i0) ~target:i1 in
  check_bool "broadcast dst" true (Mac.is_broadcast req.Frame.dl_dst);
  check_int "ethertype" 0x0806 (Frame.ethertype req);
  let rep = Frame.arp_reply ~sender:(m1, i1) ~target:(m0, i0) in
  check_bool "reply unicast" true (Mac.equal rep.Frame.dl_dst m0);
  check_bool "arp roundtrip" true (Frame.equal req (Frame.decode (Frame.encode req)));
  check_bool "reply roundtrip" true (Frame.equal rep (Frame.decode (Frame.encode rep)))

let test_tcp_frame () =
  let s = host 0 and d = host 1 in
  let f =
    Frame.tcp_packet ~flags:Frame.tcp_syn ~payload_len:512 ~src:s ~dst:d
      ~src_port:1234 ~dst_port:80 ()
  in
  check_int "ethertype" 0x0800 (Frame.ethertype f);
  let f' = Frame.decode (Frame.encode f) in
  check_bool "tcp roundtrip" true (Frame.equal f f');
  (match f'.Frame.payload with
  | Frame.Ipv4 { l4 = Frame.Tcp t; _ } ->
      check_int "sport" 1234 t.Frame.src_port;
      check_int "payload preserved" 512 t.Frame.payload_len
  | _ -> Alcotest.fail "wrong payload");
  check_bool "size includes payload" true (Frame.size_on_wire f > 512)

let test_udp_frame () =
  let f =
    Frame.udp_packet ~payload_len:99 ~src:(host 2) ~dst:(host 3) ~src_port:53
      ~dst_port:5353 ()
  in
  let f' = Frame.decode (Frame.encode f) in
  check_bool "udp roundtrip" true (Frame.equal f f')

let test_lldp_frame () =
  let lldp = Lldp.make ~chassis_id:9L ~port_id:2 ~ttl:120 () in
  let f = Frame.lldp_frame ~src:(Mac.of_host_index 77) lldp in
  check_int "ethertype" 0x88CC (Frame.ethertype f);
  let f' = Frame.decode (Frame.encode f) in
  (match f'.Frame.payload with
  | Frame.Lldp l -> check_bool "lldp payload" true (Lldp.equal l lldp)
  | _ -> Alcotest.fail "wrong payload")

let test_vlan_frame () =
  let f =
    { (Frame.tcp_packet ~src:(host 0) ~dst:(host 1) ~src_port:1 ~dst_port:2 ())
      with Frame.vlan = Some 42 }
  in
  let f' = Frame.decode (Frame.encode f) in
  Alcotest.(check (option int)) "vlan preserved" (Some 42) f'.Frame.vlan

let test_garbage_rejected () =
  check_bool "truncated raises" true
    (match Frame.decode "\x01\x02" with
    | _ -> false
    | exception Wire_buf.Truncated _ -> true)

let test_icmp_frame () =
  let f =
    { Frame.dl_src = Mac.of_host_index 1;
      dl_dst = Mac.of_host_index 2;
      vlan = None;
      payload =
        Frame.Ipv4
          { src = Ipv4.of_host_index 1;
            dst = Ipv4.of_host_index 2;
            proto = 1;
            ttl = 64;
            dscp = 0;
            l4 = Frame.Icmp { ty = 8; code = 0 } } }
  in
  let f' = Frame.decode (Frame.encode f) in
  check_bool "icmp roundtrip" true (Frame.equal f f')

let test_raw_payload () =
  let f =
    { Frame.dl_src = Mac.of_host_index 1;
      dl_dst = Mac.of_host_index 2;
      vlan = None;
      payload = Frame.Raw (0x9999, "opaque-bytes") }
  in
  let f' = Frame.decode (Frame.encode f) in
  (match f'.Frame.payload with
  | Frame.Raw (ty, body) ->
      check_int "ethertype kept" 0x9999 ty;
      check_str "body kept" "opaque-bytes" body
  | _ -> Alcotest.fail "raw payload lost");
  check_int "raw size" (String.length (Frame.encode f)) (Frame.size_on_wire f)

let test_mac_distinctness () =
  (* Deterministic host addressing must be injective over the range the
     simulator uses. *)
  let macs = List.init 2000 (fun i -> Mac.to_int (Mac.of_host_index i)) in
  check_int "all distinct" 2000 (List.length (List.sort_uniq compare macs))

let test_ipv4_host_index_wraps_safely () =
  let a = Ipv4.of_host_index 0 and b = Ipv4.of_host_index 65535 in
  check_bool "distinct" false (Ipv4.equal a b);
  check_bool "in 10/8" true
    (Ipv4.matches_prefix a ~prefix:(Ipv4.of_string "10.0.0.0") ~bits:8)

(* --- QCheck: frame codec roundtrip over generated frames --- *)

let gen_frame =
  let open QCheck.Gen in
  let mac = map Mac.of_host_index (int_bound 0xFFFF) in
  let ip = map Ipv4.of_host_index (int_bound 0xFFFF) in
  let port = int_range 1 65_535 in
  let arp =
    map2
      (fun (sha, spa) (tha, tpa) ->
        Frame.Arp { op = Frame.Request; sha; spa; tha; tpa })
      (pair mac ip) (pair mac ip)
  in
  let tcp =
    map2
      (fun (src, dst) ((sp, dp), len) ->
        Frame.Ipv4
          { src;
            dst;
            proto = 6;
            ttl = 64;
            dscp = 0;
            l4 =
              Frame.Tcp
                { src_port = sp; dst_port = dp; seq = 0; ack = 0; flags = 2;
                  window = 65_535; payload_len = len } })
      (pair ip ip)
      (pair (pair port port) (int_bound 1400))
  in
  let udp =
    map2
      (fun (src, dst) (sp, dp) ->
        Frame.Ipv4
          { src; dst; proto = 17; ttl = 64; dscp = 0;
            l4 = Frame.Udp { src_port = sp; dst_port = dp; payload_len = 10 } })
      (pair ip ip) (pair port port)
  in
  let ip_with proto l4 =
    map
      (fun (src, dst) -> Frame.Ipv4 { src; dst; proto; ttl = 64; dscp = 0; l4 })
      (pair ip ip)
  in
  let icmp =
    int_bound 255 >>= fun ty ->
    int_bound 255 >>= fun code -> ip_with 1 (Frame.Icmp { ty; code })
  in
  (* Any protocol but ICMP, TCP and UDP decodes back to [Other_l4]. *)
  let other_l4 =
    oneofl [ 0; 2; 47; 50; 89; 132; 255 ] >>= fun proto ->
    string_size ~gen:char (int_bound 64) >>= fun body ->
    ip_with proto (Frame.Other_l4 (proto, body))
  in
  let lldp =
    map2
      (fun (chassis, port) name ->
        Frame.Lldp
          (Lldp.make ?system_name:name ~chassis_id:(Int64.of_int chassis)
             ~port_id:port ~ttl:120 ()))
      (pair (int_bound 0xFFFF_FFFF) port)
      (opt (string_size ~gen:printable (int_bound 40)))
  in
  (* Any ethertype the decoder does not parse stays raw. *)
  let raw =
    map2
      (fun ty body -> Frame.Raw (ty, body))
      (oneofl [ 0x86DD; 0x8847; 0x9999 ])
      (string_size ~gen:char (int_bound 64))
  in
  let payload = oneof [ arp; tcp; udp; icmp; other_l4; lldp; raw ] in
  map3
    (fun (dl_src, dl_dst) vlan payload ->
      { Frame.dl_src; dl_dst; vlan; payload })
    (pair mac mac)
    (opt (int_bound 0xFFF))
    payload

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame encode/decode roundtrip" ~count:300
    (QCheck.make gen_frame)
    (fun f -> Frame.equal f (Frame.decode (Frame.encode f)))

let prop_frame_encoded_length =
  QCheck.Test.make ~name:"frame length without encoding" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Frame.pp) gen_frame)
    (fun f -> Frame.encoded_length f = String.length (Frame.encode f))

let suite =
  [ ("mac roundtrip", `Quick, test_mac_roundtrip);
    ("mac invalid", `Quick, test_mac_invalid);
    ("mac host index", `Quick, test_mac_host_index);
    ("ipv4 roundtrip", `Quick, test_ipv4_roundtrip);
    ("ipv4 prefix match", `Quick, test_ipv4_prefix);
    ("wire writer/reader", `Quick, test_writer_reader);
    ("reader truncation", `Quick, test_reader_truncated);
    ("patch u16", `Quick, test_patch_u16);
    ("internet checksum", `Quick, test_checksum);
    ("lldp roundtrip", `Quick, test_lldp_roundtrip);
    ("arp frames", `Quick, test_arp_frames);
    ("tcp frame", `Quick, test_tcp_frame);
    ("udp frame", `Quick, test_udp_frame);
    ("lldp frame", `Quick, test_lldp_frame);
    ("vlan tag", `Quick, test_vlan_frame);
    ("garbage rejected", `Quick, test_garbage_rejected);
    ("icmp frame", `Quick, test_icmp_frame);
    ("raw payload", `Quick, test_raw_payload);
    ("mac distinctness", `Quick, test_mac_distinctness);
    ("ipv4 host index", `Quick, test_ipv4_host_index_wraps_safely);
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    QCheck_alcotest.to_alcotest prop_frame_encoded_length ]
