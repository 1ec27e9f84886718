(* Tests for the OpenFlow substrate: matches, actions, wire codec and
   flow-table semantics. *)

open Jury_openflow
module Frame = Jury_packet.Frame
module Mac = Jury_packet.Addr.Mac
module Ipv4 = Jury_packet.Addr.Ipv4
module Time = Jury_sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let host i = (Mac.of_host_index i, Ipv4.of_host_index i)

let tcp_frame ?(src = 0) ?(dst = 1) ?(sport = 1234) ?(dport = 80) () =
  Frame.tcp_packet ~src:(host src) ~dst:(host dst) ~src_port:sport
    ~dst_port:dport ()

(* --- Matches --- *)

let test_wildcard_matches_everything () =
  check_bool "tcp" true
    (Of_match.matches Of_match.wildcard_all ~in_port:1 (tcp_frame ()));
  let arp =
    Frame.arp_request ~sender:(host 0) ~target:(Ipv4.of_host_index 1)
  in
  check_bool "arp" true (Of_match.matches Of_match.wildcard_all ~in_port:9 arp)

let test_exact_match () =
  let f = tcp_frame () in
  let m = Of_match.exact_of_frame ~in_port:3 f in
  check_bool "matches itself" true (Of_match.matches m ~in_port:3 f);
  check_bool "wrong port" false (Of_match.matches m ~in_port:4 f);
  check_bool "wrong sport" false
    (Of_match.matches m ~in_port:3 (tcp_frame ~sport:9999 ()));
  check_bool "hierarchy ok" true (Of_match.hierarchy_ok m)

let test_l2_pair () =
  let m = Of_match.l2_pair ~src:(fst (host 0)) ~dst:(fst (host 1)) in
  check_bool "matches any port" true
    (Of_match.matches m ~in_port:1 (tcp_frame ()))
  ;
  check_bool "matches other l4" true
    (Of_match.matches m ~in_port:7 (tcp_frame ~sport:1 ~dport:2 ()));
  check_bool "wrong dst" false
    (Of_match.matches m ~in_port:1 (tcp_frame ~dst:5 ()))

let test_prefix_match () =
  let m =
    Of_match.make ~dl_type:0x0800 ~nw_dst:(Ipv4.of_string "10.0.0.0", 8) ()
  in
  check_bool "in prefix" true (Of_match.matches m ~in_port:1 (tcp_frame ()));
  check_bool "arp spa reuse" true (Of_match.hierarchy_ok m)

(* A prefix length the wire's 6-bit mask field cannot carry is refused
   where a match is built: [make] and the decoders' [of_fields] raise.
   The ends 0 and 32 build; /0 keeps its field set. *)
let test_prefix_length_range () =
  let ip = Ipv4.of_string "10.0.0.1" in
  let raises what f =
    match f () with
    | (_ : Of_match.t) -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  let fields bit bits () =
    Of_match.of_fields ~present:bit ~in_port:0 ~dl_src:Mac.zero
      ~dl_dst:Mac.zero ~dl_vlan:0 ~dl_type:0 ~nw_src:ip ~nw_src_bits:bits
      ~nw_dst:ip ~nw_dst_bits:bits ~nw_proto:0 ~nw_tos:0 ~tp_src:0 ~tp_dst:0
  in
  List.iter
    (fun bits ->
      let what = Printf.sprintf "/%d" bits in
      raises ("make nw_src " ^ what) (fun () ->
          Of_match.make ~nw_src:(ip, bits) ());
      raises ("make nw_dst " ^ what) (fun () ->
          Of_match.make ~nw_dst:(ip, bits) ());
      raises ("of_fields nw_src " ^ what) (fields Of_match.Bit.nw_src bits);
      raises ("of_fields nw_dst " ^ what) (fields Of_match.Bit.nw_dst bits))
    [ -40; -8; -1; 33; 40; 64; 1_000_000; min_int; max_int ];
  List.iter
    (fun bits ->
      let m = Of_match.make ~nw_src:(ip, bits) ~nw_dst:(ip, bits) () in
      check_int "bits kept" bits m.Of_match.nw_src_bits;
      check_bool "field set" true (m.Of_match.present land Of_match.Bit.nw_src <> 0))
    [ 0; 1; 24; 32 ];
  (* An absent prefix's length is not read. *)
  ignore (fields 0 (-40) ())

let test_hierarchy () =
  let bad = Of_match.make ~tp_dst:80 () in
  check_bool "tp without nw_proto" false (Of_match.hierarchy_ok bad);
  let stripped = Of_match.strip_invalid_fields bad in
  check_bool "stripped becomes valid" true (Of_match.hierarchy_ok stripped);
  check_bool "tp gone" true
    (stripped.Of_match.present land Of_match.Bit.tp_dst = 0);
  let nw_only = Of_match.make ~nw_proto:6 () in
  check_bool "nw without dl_type" false (Of_match.hierarchy_ok nw_only);
  let ok = Of_match.make ~dl_type:0x0800 ~nw_proto:6 ~tp_dst:80 () in
  check_bool "full chain ok" true (Of_match.hierarchy_ok ok);
  check_bool "strip is identity when valid" true
    (Of_match.equal ok (Of_match.strip_invalid_fields ok))

let test_more_specific () =
  let f = tcp_frame () in
  let exact = Of_match.exact_of_frame ~in_port:1 f in
  let pair = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  check_bool "exact < pair" true (Of_match.more_specific exact pair);
  check_bool "pair not < exact" false (Of_match.more_specific pair exact);
  check_bool "anything < wildcard" true
    (Of_match.more_specific pair Of_match.wildcard_all);
  check_bool "reflexive" true (Of_match.more_specific exact exact)

(* --- The option-per-field model of a match ---

   A match as it was held before it became a record of ints: one option
   per field, [dl_vlan = Some None] for untagged traffic and a prefix as
   an (address, bits) pair. [of_match] reads a match back into it, and
   the definitions of the hierarchy, the strip and subsumption over it
   are the ones the option record had: the reference the int record
   must agree with. *)
module Spec = struct
  type t = {
    in_port : int option;
    dl_src : Mac.t option;
    dl_dst : Mac.t option;
    dl_vlan : int option option;
    dl_type : int option;
    nw_src : (Ipv4.t * int) option;
    nw_dst : (Ipv4.t * int) option;
    nw_proto : int option;
    nw_tos : int option;
    tp_src : int option;
    tp_dst : int option;
  }

  let to_match s =
    Of_match.make ?in_port:s.in_port ?dl_src:s.dl_src ?dl_dst:s.dl_dst
      ?dl_vlan:s.dl_vlan ?dl_type:s.dl_type ?nw_src:s.nw_src ?nw_dst:s.nw_dst
      ?nw_proto:s.nw_proto ?nw_tos:s.nw_tos ?tp_src:s.tp_src ?tp_dst:s.tp_dst
      ()

  let of_match (m : Of_match.t) =
    let field bit v = if m.present land bit = 0 then None else Some v in
    { in_port = field Of_match.Bit.in_port m.in_port;
      dl_src = field Of_match.Bit.dl_src m.dl_src;
      dl_dst = field Of_match.Bit.dl_dst m.dl_dst;
      dl_vlan =
        field Of_match.Bit.dl_vlan
          (if m.present land Of_match.Bit.untagged = 0 then Some m.dl_vlan
           else None);
      dl_type = field Of_match.Bit.dl_type m.dl_type;
      nw_src = field Of_match.Bit.nw_src (m.nw_src, m.nw_src_bits);
      nw_dst = field Of_match.Bit.nw_dst (m.nw_dst, m.nw_dst_bits);
      nw_proto = field Of_match.Bit.nw_proto m.nw_proto;
      nw_tos = field Of_match.Bit.nw_tos m.nw_tos;
      tp_src = field Of_match.Bit.tp_src m.tp_src;
      tp_dst = field Of_match.Bit.tp_dst m.tp_dst }

  let nw_backed t =
    match t.dl_type with
    | Some ty -> ty = 0x0800 || ty = 0x0806
    | None -> false

  let tp_backed t =
    nw_backed t
    && t.dl_type = Some 0x0800
    && match t.nw_proto with Some (1 | 6 | 17) -> true | Some _ | None -> false

  let hierarchy_ok t =
    let nw_set =
      t.nw_src <> None || t.nw_dst <> None || t.nw_proto <> None
      || t.nw_tos <> None
    in
    let tp_set = t.tp_src <> None || t.tp_dst <> None in
    ((not nw_set) || nw_backed t) && ((not tp_set) || tp_backed t)

  let strip_invalid_fields t =
    let t =
      if nw_backed t then t
      else { t with nw_src = None; nw_dst = None; nw_proto = None;
                    nw_tos = None }
    in
    if tp_backed t then t else { t with tp_src = None; tp_dst = None }

  let more_specific a b =
    let sub eq ga gb =
      match (ga a, gb b) with
      | _, None -> true
      | None, Some _ -> false
      | Some va, Some vb -> eq va vb
    in
    let prefix_sub (pa, ba) (pb, bb) =
      ba >= bb && Ipv4.matches_prefix pa ~prefix:pb ~bits:bb
    in
    sub ( = ) (fun t -> t.in_port) (fun t -> t.in_port)
    && sub Mac.equal (fun t -> t.dl_src) (fun t -> t.dl_src)
    && sub Mac.equal (fun t -> t.dl_dst) (fun t -> t.dl_dst)
    && sub ( = ) (fun t -> t.dl_vlan) (fun t -> t.dl_vlan)
    && sub ( = ) (fun t -> t.dl_type) (fun t -> t.dl_type)
    && sub prefix_sub (fun t -> t.nw_src) (fun t -> t.nw_src)
    && sub prefix_sub (fun t -> t.nw_dst) (fun t -> t.nw_dst)
    && sub ( = ) (fun t -> t.nw_proto) (fun t -> t.nw_proto)
    && sub ( = ) (fun t -> t.nw_tos) (fun t -> t.nw_tos)
    && sub ( = ) (fun t -> t.tp_src) (fun t -> t.tp_src)
    && sub ( = ) (fun t -> t.tp_dst) (fun t -> t.tp_dst)

  (* Each field unset or drawn by its generator. [`Wire] draws only
     what the OF 1.0 encoding can carry (prefixes of 1 to 32 bits, VIDs
     below the untagged marker 0xFFFF); [`Narrow] draws from two or
     three values per field, so that two draws are often equal;
     [`Wide] reaches the ends of each field's range and past them,
     prefixes staying within 0 to 32 bits. *)
  let gen range =
    let open QCheck.Gen in
    let opt g = opt ~ratio:0.6 g in
    let pick wire narrow wide =
      match range with `Wire -> wire | `Narrow -> narrow | `Wide -> wide
    in
    (* An n-bit-ish field: [0, n] on the wire, and a few values below
       0 and above n when wide. *)
    let u n =
      pick (int_bound n) (int_bound 2)
        (oneof [ int_bound n; int_range (-5) (2 * n) ])
    in
    let mac =
      map Mac.of_int
        (pick (int_bound 0xFFFF_FFFF_FFFF) (int_bound 1)
           (int_bound 0xFFFF_FFFF_FFFF))
    in
    let prefix =
      pair
        (map Ipv4.of_int
           (pick (int_bound 0xFFFF_FFFF)
              (oneofl [ 0x0a000000; 0x0a000001 ])
              (int_bound 0xFFFF_FFFF)))
        (pick (int_range 1 32) (oneofl [ 0; 24; 32 ]) (int_bound 32))
    in
    let vlan = opt (pick (int_bound 0xFFFE) (int_bound 1) (u 0xFFFF)) in
    let either known wide =
      pick wide (oneofl known) (oneof [ oneofl known; wide ])
    in
    let dl_type = either [ 0x0800; 0x0806 ] (u 0xFFFF) in
    let nw_proto = either [ 1; 6; 17 ] (u 255) in
    opt (u 0xFFFF) >>= fun in_port ->
    opt mac >>= fun dl_src ->
    opt mac >>= fun dl_dst ->
    opt vlan >>= fun dl_vlan ->
    opt dl_type >>= fun dl_type ->
    opt prefix >>= fun nw_src ->
    opt prefix >>= fun nw_dst ->
    opt nw_proto >>= fun nw_proto ->
    opt (u 255) >>= fun nw_tos ->
    opt (u 0xFFFF) >>= fun tp_src ->
    opt (u 0xFFFF) >|= fun tp_dst ->
    { in_port; dl_src; dl_dst; dl_vlan; dl_type; nw_src; nw_dst; nw_proto;
      nw_tos; tp_src; tp_dst }
end

(* --- Actions --- *)

let test_actions_apply () =
  let f = tcp_frame () in
  let f', ports =
    Of_action.apply
      [ Of_action.Set_dl_dst (fst (host 9));
        Of_action.Set_nw_dst (Ipv4.of_host_index 9);
        Of_action.Output 3;
        Of_action.Output 5 ]
      f
  in
  Alcotest.(check (list int)) "output ports" [ 3; 5 ] ports;
  check_bool "dl rewritten" true (Mac.equal f'.Frame.dl_dst (fst (host 9)));
  (match f'.Frame.payload with
  | Frame.Ipv4 ip ->
      check_bool "nw rewritten" true (Ipv4.equal ip.Frame.dst (Ipv4.of_host_index 9))
  | _ -> Alcotest.fail "payload");
  check_bool "drop detection" true (Of_action.is_drop []);
  check_bool "not drop" false (Of_action.is_drop [ Of_action.Output 1 ])

let test_action_vlan () =
  let f = tcp_frame () in
  let f', _ = Of_action.apply [ Of_action.Set_vlan 7 ] f in
  Alcotest.(check (option int)) "vlan set" (Some 7) f'.Frame.vlan;
  let f'', _ = Of_action.apply [ Of_action.Strip_vlan ] f' in
  Alcotest.(check (option int)) "vlan stripped" None f''.Frame.vlan

(* --- Wire codec --- *)

let roundtrip payload =
  let msg = Of_message.make ~xid:99 payload in
  let msg' = Of_wire.decode (Of_wire.encode msg) in
  Of_message.equal msg msg'

let test_wire_simple_messages () =
  check_bool "hello" true (roundtrip Of_message.Hello);
  check_bool "echo req" true (roundtrip (Of_message.Echo_request "ping"));
  check_bool "echo rep" true (roundtrip (Of_message.Echo_reply "pong"));
  check_bool "features req" true (roundtrip Of_message.Features_request);
  check_bool "barrier req" true (roundtrip Of_message.Barrier_request);
  check_bool "barrier rep" true (roundtrip Of_message.Barrier_reply);
  check_bool "error" true (roundtrip (Of_message.Error (3, 1)))

let test_wire_features_reply () =
  check_bool "features reply" true
    (roundtrip
       (Of_message.Features_reply
          { datapath_id = Of_types.Dpid.of_int 42;
            n_buffers = 256;
            n_tables = 1;
            ports = [ 1; 2; 3 ] }))

let test_wire_packet_in_out () =
  let f = tcp_frame () in
  check_bool "packet_in" true
    (roundtrip
       (Of_message.Packet_in
          { buffer_id = Some 7; in_port = 3; reason = Of_message.No_match;
            frame = f }));
  check_bool "packet_out buffered" true
    (roundtrip
       (Of_message.Packet_out
          { po_buffer_id = Some 7; po_in_port = 3;
            po_actions = [ Of_action.Output 1 ]; po_frame = None }));
  check_bool "packet_out inline" true
    (roundtrip
       (Of_message.Packet_out
          { po_buffer_id = None; po_in_port = 3;
            po_actions = [ Of_action.Output Of_types.Port.flood ];
            po_frame = Some f }))

let test_wire_flow_mod () =
  let m = Of_match.exact_of_frame ~in_port:2 (tcp_frame ()) in
  check_bool "flow_mod add" true
    (roundtrip
       (Of_message.Flow_mod
          (Of_message.flow_mod ~priority:42 ~idle_timeout:10
             ~buffer_id:(Some 3) m
             [ Of_action.Output 7; Of_action.Set_vlan 3 ])));
  check_bool "flow_mod delete" true
    (roundtrip
       (Of_message.Flow_mod
          (Of_message.flow_mod ~command:Of_message.Delete
             (Of_match.l2_dst ~dst:(fst (host 3)))
             [])))

let test_wire_stream () =
  let msgs =
    [ Of_message.make ~xid:1 Of_message.Hello;
      Of_message.make ~xid:2 (Of_message.Echo_request "x");
      Of_message.make ~xid:3 Of_message.Barrier_request ]
  in
  let stream = String.concat "" (List.map Of_wire.encode msgs) in
  let decoded = Of_wire.decode_all stream in
  check_int "count" 3 (List.length decoded);
  check_bool "all equal" true (List.for_all2 Of_message.equal msgs decoded)

(* Encodings captured before the codec moved to one buffer per
   message; every byte must stay put. The PACKET_OUT and PACKET_IN
   carry IPv4 frames, so the IPv4 length and checksum patches are
   pinned too. *)
let test_wire_golden () =
  let golden name want payload =
    Alcotest.(check string) name want
      (Jury_controller.Values.hex_encode
         (Of_wire.encode (Of_message.make ~xid:0x1234 payload)))
  in
  let f = tcp_frame ~src:2 ~dst:5 ~sport:40000 ~dport:443 () in
  golden "flow_mod"
    ("010e005800001234000000000002020000000002020000000005ffff0000"
    ^ "0800000600000a0000030a0000069c4001bb01020304050607080000000a"
    ^ "001e002a00000003ffff0001000000080007ffff0001000800030000")
    (Of_message.Flow_mod
       (Of_message.flow_mod ~priority:42 ~idle_timeout:10 ~hard_timeout:30
          ~cookie:0x0102030405060708L ~buffer_id:(Some 3)
          (Of_match.exact_of_frame ~in_port:2 f)
          [ Of_action.Output 7; Of_action.Set_vlan 3 ]));
  golden "packet_out"
    ("010d005000001234ffffffff0003000800000008fffbffff020000000005"
    ^ "02000000000208004500002a00004000400626c60a0000030a0000069c40"
    ^ "01bb00000000000000005002ffff000000000000")
    (Of_message.Packet_out
       { po_buffer_id = None; po_in_port = 3;
         po_actions = [ Of_action.Output Of_types.Port.flood ];
         po_frame = Some f });
  golden "packet_in"
    ("010a003c0000123400000007002a00040000020000000009020000000001"
    ^ "08004500001c00004000401126c60a0000020a00000a14e9003500140000")
    (Of_message.Packet_in
       { buffer_id = Some 7; in_port = 4; reason = Of_message.No_match;
         frame =
           Frame.udp_packet ~payload_len:12 ~src:(host 1) ~dst:(host 9)
             ~src_port:5353 ~dst_port:53 () });
  golden "features_reply"
    ("01060028000012340000000a0b0c0d0e0000010002000000000000000000"
    ^ "0000000300010002fffe")
    (Of_message.Features_reply
       { datapath_id = Of_types.Dpid.of_int 0x0a0b0c0d0e;
         n_buffers = 256; n_tables = 2; ports = [ 1; 2; 65534 ] });
  golden "flow_stats_reply"
    ("011100b000001234000100000002002820f3000002000000000102000000"
    ^ "0002ffff0000000000000000000000000000000000000000006400000000"
    ^ "0000000900000000000003e80010000000080002ffff0003000800000000"
    ^ "0028104f0000000000000000000000000000ffff00000800000600000a01"
    ^ "00000000000000000016000700000000000000000000000000000000001a"
    ^ "00070008c0a80101000b00100003000000000000000000050000")
    (Of_message.Stats_reply
       (Of_message.Flow_stats_reply
          [ { fs_match = Of_match.l2_pair ~src:(fst (host 1)) ~dst:(fst (host 2));
              fs_priority = 100; fs_cookie = 9L;
              fs_actions = [ Of_action.Output 2; Of_action.Strip_vlan ];
              fs_packet_count = 1000L };
            { fs_match =
                Of_match.make ~dl_type:0x0800
                  ~nw_src:(Ipv4.of_string "10.1.0.0", 16)
                  ~nw_proto:6 ~tp_dst:22 ();
              fs_priority = 7; fs_cookie = 0L;
              fs_actions =
                [ Of_action.Set_nw_dst (Ipv4.of_string "192.168.1.1");
                  Of_action.Enqueue (3, 5) ];
              fs_packet_count = 0L } ]))

(* --- Error codes --- *)

let test_error_codes () =
  List.iter
    (fun err ->
      match Of_error.of_wire (Of_error.to_wire err) with
      | Some err' -> check_bool (Of_error.describe err) true (err = err')
      | None -> Alcotest.failf "wire roundtrip lost %s" (Of_error.describe err))
    [ Of_error.Hello_failed `Incompatible;
      Of_error.Bad_request `Buffer_unknown;
      Of_error.Bad_action `Too_many;
      Of_error.Flow_mod_failed `Unsupported;
      Of_error.Port_mod_failed `Bad_hw_addr;
      Of_error.Queue_op_failed `Eperm ];
  check_bool "unknown pair" true (Of_error.of_wire (9, 9) = None);
  check_int "rejected flow mod is type 3" 3
    (fst (Of_error.to_wire Of_error.flow_mod_rejected))

(* --- Flow table --- *)

let fm ?(priority = 100) ?(idle = 0) ?(hard = 0) ?buffer m actions =
  Of_message.flow_mod ~priority ~idle_timeout:idle ~hard_timeout:hard
    ?buffer_id:(Option.map Option.some buffer) m actions

let test_table_priority () =
  let t = Flow_table.create () in
  let f = tcp_frame () in
  let low = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  let high = Of_match.exact_of_frame ~in_port:1 f in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~priority:10 low [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~priority:200 high [ Of_action.Output 2 ]));
  match Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 f with
  | Some e -> check_int "high priority wins" 200 e.Flow_table.priority
  | None -> Alcotest.fail "no match"

let test_table_add_replaces () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm m [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:(Time.ms 1) (fm m [ Of_action.Output 2 ]));
  check_int "single entry" 1 (Flow_table.size t);
  match Flow_table.entries t with
  | [ e ] ->
      check_bool "newer actions" true
        (Of_action.equal_list e.Flow_table.actions [ Of_action.Output 2 ])
  | _ -> Alcotest.fail "expected one entry"

let test_table_modify () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm m [ Of_action.Output 1 ]));
  (match
     Flow_table.apply_flow_mod t ~now:(Time.ms 1)
       { (fm m [ Of_action.Output 9 ]) with Of_message.command = Of_message.Modify }
   with
  | Flow_table.Modified n -> check_int "modified count" 1 n
  | _ -> Alcotest.fail "expected Modified");
  match Flow_table.entries t with
  | [ e ] ->
      check_bool "actions updated" true
        (Of_action.equal_list e.Flow_table.actions [ Of_action.Output 9 ])
  | _ -> Alcotest.fail "one entry"

let test_table_delete () =
  let t = Flow_table.create () in
  let f = tcp_frame () in
  let exact = Of_match.exact_of_frame ~in_port:1 f in
  let pair = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm exact [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm ~priority:50 pair [ Of_action.Output 2 ]));
  (* Non-strict delete with the broader match removes both. *)
  (match
     Flow_table.apply_flow_mod t ~now:(Time.ms 1)
       { (fm pair []) with Of_message.command = Of_message.Delete }
   with
  | Flow_table.Removed gone -> check_int "both removed" 2 (List.length gone)
  | _ -> Alcotest.fail "expected Removed");
  check_int "empty" 0 (Flow_table.size t)

let test_table_delete_strict () =
  let t = Flow_table.create () in
  let f = tcp_frame () in
  let exact = Of_match.exact_of_frame ~in_port:1 f in
  let pair = Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm exact [ Of_action.Output 1 ]));
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm ~priority:50 pair [ Of_action.Output 2 ]));
  (match
     Flow_table.apply_flow_mod t ~now:(Time.ms 1)
       { (fm ~priority:50 pair []) with Of_message.command = Of_message.Delete_strict }
   with
  | Flow_table.Removed gone -> check_int "only exact (match,prio)" 1 (List.length gone)
  | _ -> Alcotest.fail "expected Removed");
  check_int "one left" 1 (Flow_table.size t)

let test_table_timeouts () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~idle:1 m [ Of_action.Output 1 ]));
  let f = tcp_frame () in
  check_bool "live before timeout" true
    (Flow_table.lookup t ~now:(Time.of_float_sec 0.5) ~in_port:1 f <> None);
  (* last hit now at 0.5s; idle expires at 1.5s *)
  check_bool "dead after idle" true
    (Flow_table.lookup t ~now:(Time.of_float_sec 1.6) ~in_port:1 f = None);
  let dead = Flow_table.expire t ~now:(Time.of_float_sec 1.6) in
  check_int "expired" 1 (List.length dead);
  check_int "empty" 0 (Flow_table.size t)

let test_table_hard_timeout () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero
            (fm ~hard:2 m [ Of_action.Output 1 ]));
  let f = tcp_frame () in
  (* Keep hitting it; hard timeout kills it anyway. *)
  check_bool "alive at 1s" true
    (Flow_table.lookup t ~now:(Time.sec 1) ~in_port:1 f <> None);
  check_bool "dead at 3s despite hits" true
    (Flow_table.lookup t ~now:(Time.sec 3) ~in_port:1 f = None)

let test_table_hierarchy_reject_and_lenient () =
  let bad = Of_match.make ~tp_dst:80 () in
  let strict = Flow_table.create () in
  (match Flow_table.apply_flow_mod strict ~now:Time.zero (fm bad [ Of_action.Output 1 ]) with
  | Flow_table.Rejected _ -> ()
  | _ -> Alcotest.fail "strict table must reject");
  let lenient = Flow_table.create ~lenient:true () in
  (match Flow_table.apply_flow_mod lenient ~now:Time.zero (fm bad [ Of_action.Output 1 ]) with
  | Flow_table.Installed -> ()
  | _ -> Alcotest.fail "lenient table must install");
  (* The installed rule silently lost the tp_dst field: it now matches
     port 9999 traffic too — the paper's T3 inconsistency. *)
  match Flow_table.lookup lenient ~now:(Time.ms 1) ~in_port:1 (tcp_frame ~dport:9999 ()) with
  | Some _ -> ()
  | None -> Alcotest.fail "stripped rule should match any port"

let test_table_exact_index_with_wildcard_override () =
  (* Thousands of exact rules must not shadow a higher-priority
     wildcard rule, and lookups must stay correct either way. *)
  let t = Flow_table.create () in
  for i = 0 to 499 do
    let f = tcp_frame ~sport:(1000 + i) () in
    ignore
      (Flow_table.apply_flow_mod t ~now:Time.zero
         (fm ~priority:100 (Of_match.exact_of_frame ~in_port:1 f)
            [ Of_action.Output 2 ]))
  done;
  check_int "500 rules" 500 (Flow_table.size t);
  (* an exact hit *)
  (match Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 (tcp_frame ~sport:1044 ()) with
  | Some e -> check_int "exact hit" 100 e.Flow_table.priority
  | None -> Alcotest.fail "exact rule must hit");
  (* a miss for an uninstalled connection *)
  check_bool "miss for fresh port" true
    (Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 (tcp_frame ~sport:9999 ()) = None);
  (* higher-priority wildcard beats the exact rule *)
  let f = tcp_frame ~sport:1044 () in
  ignore
    (Flow_table.apply_flow_mod t ~now:(Time.ms 2)
       (fm ~priority:900 (Of_match.l2_pair ~src:f.Frame.dl_src ~dst:f.Frame.dl_dst)
          [ Of_action.Output 7 ]));
  (match Flow_table.lookup t ~now:(Time.ms 3) ~in_port:1 f with
  | Some e -> check_int "wildcard override wins" 900 e.Flow_table.priority
  | None -> Alcotest.fail "must match");
  check_bool "has expirable" false (Flow_table.has_expirable t);
  ignore
    (Flow_table.apply_flow_mod t ~now:(Time.ms 4)
       (fm ~idle:5 (Of_match.l2_dst ~dst:(fst (host 9))) [ Of_action.Output 1 ]));
  check_bool "expirable after idle rule" true (Flow_table.has_expirable t)

let test_table_counters () =
  let t = Flow_table.create () in
  let m = Of_match.l2_dst ~dst:(fst (host 1)) in
  ignore (Flow_table.apply_flow_mod t ~now:Time.zero (fm m [ Of_action.Output 1 ]));
  for _ = 1 to 5 do
    ignore (Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 (tcp_frame ()))
  done;
  match Flow_table.entries t with
  | [ e ] -> check_int "packet count" 5 e.Flow_table.packet_count
  | _ -> Alcotest.fail "one entry"

(* --- QCheck: wire roundtrip over random flow mods --- *)

let gen_match =
  let open QCheck.Gen in
  let mac = map Mac.of_host_index (int_bound 0xFFFF) in
  let m_exact =
    map
      (fun (s, d) -> Of_match.l2_pair ~src:s ~dst:d)
      (pair mac mac)
  in
  let m_dst = map (fun d -> Of_match.l2_dst ~dst:d) mac in
  let m_tcp =
    map
      (fun p -> Of_match.make ~dl_type:0x0800 ~nw_proto:6 ~tp_dst:p ())
      (int_range 1 65_535)
  in
  oneof [ m_exact; m_dst; m_tcp; return Of_match.wildcard_all ]

let gen_flow_mod =
  let open QCheck.Gen in
  map2
    (fun m (prio, port) ->
      Of_message.flow_mod ~priority:prio m [ Of_action.Output port ])
    gen_match
    (pair (int_range 0 65_535) (int_range 1 100))

let prop_flow_mod_roundtrip =
  QCheck.Test.make ~name:"flow_mod wire roundtrip" ~count:300
    (QCheck.make gen_flow_mod)
    (fun fmv -> roundtrip (Of_message.Flow_mod fmv))

let gen_action =
  let open QCheck.Gen in
  let mac = map Mac.of_host_index (int_bound 0xFFFF) in
  let ip = map Ipv4.of_host_index (int_bound 0xFFFF) in
  let port = int_bound 0xFFFF in
  oneof
    [ map (fun p -> Of_action.Output p) port;
      map (fun m -> Of_action.Set_dl_src m) mac;
      map (fun m -> Of_action.Set_dl_dst m) mac;
      map (fun i -> Of_action.Set_nw_src i) ip;
      map (fun i -> Of_action.Set_nw_dst i) ip;
      map (fun p -> Of_action.Set_tp_src p) port;
      map (fun p -> Of_action.Set_tp_dst p) port;
      map (fun v -> Of_action.Set_vlan v) (int_bound 0xFFF);
      return Of_action.Strip_vlan;
      map2 (fun p q -> Of_action.Enqueue (p, q)) port (int_bound 0xFFFF_FFFF) ]

(* Every payload constructor, with the variable-length parts (action
   lists, frames, port lists, flow stats, echo data) varied. *)
let gen_message =
  let open QCheck.Gen in
  let frame = Test_packet.gen_frame in
  let actions = list_size (int_bound 4) gen_action in
  let u16 = int_bound 0xFFFF and u32 = int_bound 0xFFFF_FFFF in
  let buffer_id = opt (int_bound 0xFFFF_FFFE) in
  let u64 = map Int64.of_int (int_bound max_int) in
  let echo = string_size ~gen:char (int_bound 32) in
  let packet_in =
    buffer_id >>= fun buffer_id ->
    u16 >>= fun in_port ->
    oneofl Of_message.[ No_match; Action_to_controller ] >>= fun reason ->
    frame >|= fun frame ->
    Of_message.Packet_in { buffer_id; in_port; reason; frame }
  in
  let packet_out =
    buffer_id >>= fun po_buffer_id ->
    u16 >>= fun po_in_port ->
    actions >>= fun po_actions ->
    opt frame >|= fun po_frame ->
    Of_message.Packet_out { po_buffer_id; po_in_port; po_actions; po_frame }
  in
  let flow_mod =
    gen_flow_mod >>= fun fm ->
    actions >|= fun actions -> Of_message.Flow_mod { fm with actions }
  in
  let features_reply =
    u64 >>= fun dpid ->
    u32 >>= fun n_buffers ->
    int_bound 255 >>= fun n_tables ->
    list_size (int_bound 8) u16 >|= fun ports ->
    Of_message.Features_reply
      { datapath_id = Of_types.Dpid.of_int64 dpid; n_buffers; n_tables; ports }
  in
  let flow_removed =
    gen_match >>= fun fr_match ->
    u64 >>= fun fr_cookie ->
    u16 >>= fun fr_priority ->
    oneofl Of_message.[ Idle_timeout; Hard_timeout; Deleted ]
    >>= fun fr_reason ->
    u32 >>= fun duration_sec ->
    u64 >>= fun packet_count ->
    u64 >|= fun byte_count ->
    Of_message.Flow_removed
      { fr_match; fr_cookie; fr_priority; fr_reason; duration_sec;
        packet_count; byte_count }
  in
  let port_status =
    oneofl Of_message.[ Port_add; Port_delete; Port_modify ]
    >>= fun ps_reason ->
    u16 >>= fun ps_port ->
    bool >|= fun ps_link_up ->
    Of_message.Port_status { ps_reason; ps_port; ps_link_up }
  in
  let flow_stat =
    gen_match >>= fun fs_match ->
    u16 >>= fun fs_priority ->
    u64 >>= fun fs_cookie ->
    actions >>= fun fs_actions ->
    u64 >|= fun fs_packet_count ->
    { Of_message.fs_match; fs_priority; fs_cookie; fs_actions;
      fs_packet_count }
  in
  oneof
    [ oneofl
        Of_message.
          [ Hello; Features_request; Barrier_request; Barrier_reply;
            Stats_request Table_stats_request ];
      map (fun s -> Of_message.Echo_request s) echo;
      map (fun s -> Of_message.Echo_reply s) echo;
      map2 (fun ty code -> Of_message.Error (ty, code)) u16 u16;
      features_reply;
      packet_in;
      packet_out;
      flow_mod;
      flow_removed;
      port_status;
      map (fun m -> Of_message.Stats_request (Flow_stats_request m)) gen_match;
      map
        (fun stats -> Of_message.Stats_reply (Flow_stats_reply stats))
        (list_size (int_bound 3) flow_stat);
      map (fun n -> Of_message.Stats_reply (Table_stats_reply n)) u32 ]
  >>= fun payload ->
  u32 >|= fun xid -> Of_message.make ~xid payload

let arb_message =
  QCheck.make ~print:(Format.asprintf "%a" Of_message.pp) gen_message

let prop_message_size =
  QCheck.Test.make ~name:"message size without encoding" ~count:1000
    arb_message
    (fun m -> Of_wire.encoded_size m = String.length (Of_wire.encode m))

let prop_match_strip_idempotent =
  QCheck.Test.make ~name:"strip_invalid_fields idempotent & valid" ~count:300
    (QCheck.make gen_match)
    (fun m ->
      let s = Of_match.strip_invalid_fields m in
      Of_match.hierarchy_ok s
      && Of_match.equal s (Of_match.strip_invalid_fields s))

(* --- Every observable form of a match, pinned ---

   Read at the commit before matches became records of ints: the
   rendering ([to_string], hence [pp] and alarm details), the FLOWSDB
   key, the 40 wire bytes, the hierarchy check, the strip, and whether
   the row is [more_specific] than each row of the table in turn. *)

let golden_rows =
  let ip = Ipv4.of_string in
  [ ("wildcard_all", Of_match.wildcard_all);
    ( "exact ARP",
      Of_match.exact_of_frame ~in_port:3
        (Frame.arp_request ~sender:(host 4) ~target:(Ipv4.of_host_index 7)) );
    ( "exact TCP",
      Of_match.exact_of_frame ~in_port:2
        (tcp_frame ~src:2 ~dst:5 ~sport:40000 ~dport:443 ()) );
    ("l2_pair", Of_match.l2_pair ~src:(fst (host 1)) ~dst:(fst (host 2)));
    ("l2_dst", Of_match.l2_dst ~dst:(fst (host 3)));
    ("untagged", Of_match.make ~dl_vlan:None ());
    ("vlan 42", Of_match.make ~dl_vlan:(Some 42) ());
    ("/0", Of_match.make ~dl_type:0x0800 ~nw_src:(ip "10.0.0.1", 0) ());
    ("/24", Of_match.make ~dl_type:0x0800 ~nw_dst:(ip "10.1.2.0", 24) ());
    ("/32", Of_match.make ~dl_type:0x0800 ~nw_src:(ip "10.0.0.3", 32) ());
    ("in_port -3", Of_match.make ~in_port:(-3) ());
    ("tp_src 123456", Of_match.make ~tp_src:123456 ());
    ("tp_dst 80", Of_match.make ~tp_dst:80 ()) ]

(* name, to_string, Values.Flow.key at dpid 1 and priority 100, wire
   hex, hierarchy_ok, to_string of the strip, more_specific than each
   row *)
let golden_table =
  [ ("wildcard_all", "{*}", "1/f66a700e7b6f9d581f8f44ee87a1e6d0",
     "002820ff0000000000000000000000000000ffff0000000000000000000000000000000000000000",
     true, "{*}", "1000000000000");
    ("exact ARP",
     "{in_port=3,dl_src=02:00:00:00:00:04,dl_dst=ff:ff:ff:ff:ff:ff,dl_vlan=untagged,dl_type=0x0806,nw_src=10.0.0.5/32,nw_dst=10.0.0.8/32,nw_proto=1,nw_tos=0}",
     "1/be2be4d15cab4f0facc171702424352d",
     "000000c00003020000000004ffffffffffffffff00000806000100000a0000050a00000800000000",
     true,
     "{in_port=3,dl_src=02:00:00:00:00:04,dl_dst=ff:ff:ff:ff:ff:ff,dl_vlan=untagged,dl_type=0x0806,nw_src=10.0.0.5/32,nw_dst=10.0.0.8/32,nw_proto=1,nw_tos=0}",
     "1100010000000");
    ("exact TCP",
     "{in_port=2,dl_src=02:00:00:00:00:02,dl_dst=02:00:00:00:00:05,dl_vlan=untagged,dl_type=0x0800,nw_src=10.0.0.3/32,nw_dst=10.0.0.6/32,nw_proto=6,nw_tos=0,tp_src=40000,tp_dst=443}",
     "1/3b3bed8c7cd514487594f35b33d13e92",
     "000000000002020000000002020000000005ffff00000800000600000a0000030a0000069c4001bb",
     true,
     "{in_port=2,dl_src=02:00:00:00:00:02,dl_dst=02:00:00:00:00:05,dl_vlan=untagged,dl_type=0x0800,nw_src=10.0.0.3/32,nw_dst=10.0.0.6/32,nw_proto=6,nw_tos=0,tp_src=40000,tp_dst=443}",
     "1010010101000");
    ("l2_pair", "{dl_src=02:00:00:00:00:01,dl_dst=02:00:00:00:00:02}",
     "1/8b627fe10c517b872ac5af479de0f9cf",
     "002820f30000020000000001020000000002ffff0000000000000000000000000000000000000000",
     true, "{dl_src=02:00:00:00:00:01,dl_dst=02:00:00:00:00:02}",
     "1001000000000");
    ("l2_dst", "{dl_dst=02:00:00:00:00:03}",
     "1/68dca14a679607e06c130849bc24e52d",
     "002820f70000000000000000020000000003ffff0000000000000000000000000000000000000000",
     true, "{dl_dst=02:00:00:00:00:03}", "1000100000000");
    ("untagged", "{dl_vlan=untagged}", "1/3296a824699497e609f79e01f76074f2",
     "002820fd0000000000000000000000000000ffff0000000000000000000000000000000000000000",
     true, "{dl_vlan=untagged}", "1000010000000");
    ("vlan 42", "{dl_vlan=42}", "1/f072333e900f82e1d2b05a4e668c30f5",
     "002820fd0000000000000000000000000000002a0000000000000000000000000000000000000000",
     true, "{dl_vlan=42}", "1000001000000");
    ("/0", "{dl_type=0x0800,nw_src=10.0.0.1/0}",
     "1/555108bf5e64f199fd82aa23ba66417b",
     "002820ef0000000000000000000000000000ffff00000800000000000a0000010000000000000000",
     true, "{dl_type=0x0800,nw_src=10.0.0.1/0}", "1000000100000");
    ("/24", "{dl_type=0x0800,nw_dst=10.1.2.0/24}",
     "1/cd3aa287a0d92ede3c8650fd1df3ba39",
     "002220ef0000000000000000000000000000ffff0000080000000000000000000a01020000000000",
     true, "{dl_type=0x0800,nw_dst=10.1.2.0/24}", "1000000010000");
    ("/32", "{dl_type=0x0800,nw_src=10.0.0.3/32}",
     "1/c2f742e19b1b0a581c5b0a879dec0670",
     "002800ef0000000000000000000000000000ffff00000800000000000a0000030000000000000000",
     true, "{dl_type=0x0800,nw_src=10.0.0.3/32}", "1000000101000");
    ("in_port -3", "{in_port=-3}", "1/6ac7cfed9616e425a603b56053bacac1",
     "002820fefffd000000000000000000000000ffff0000000000000000000000000000000000000000",
     true, "{in_port=-3}", "1000000000100");
    ("tp_src 123456", "{tp_src=123456}", "1/4f391c2a490d73d2b625d6f55844f298",
     "002820bf0000000000000000000000000000ffff00000000000000000000000000000000e2400000",
     false, "{*}", "1000000000010");
    ("tp_dst 80", "{tp_dst=80}", "1/680b0e5398eb54f41c5929f6ffd86e26",
     "0028207f0000000000000000000000000000ffff0000000000000000000000000000000000000050",
     false, "{*}", "1000000000001") ]

(* The 40 bytes [Of_wire] writes for a match, as hex. *)
let match_wire m =
  let s =
    Of_wire.encode
      (Of_message.make ~xid:0
         (Of_message.Stats_request (Of_message.Flow_stats_request m)))
  in
  Jury_controller.Values.hex_encode (String.sub s 12 40)

let test_match_golden () =
  let check = Alcotest.(check string) in
  List.iter2
    (fun (name, m) (name', str, key, wire, ok, stripped, specific) ->
      check "row" name' name;
      check (name ^ ": to_string") str (Of_match.to_string m);
      check (name ^ ": pp") str (Format.asprintf "%a" Of_match.pp m);
      check (name ^ ": FLOWSDB key") key
        (Jury_controller.Values.Flow.key (Of_types.Dpid.of_int 1) m
           ~priority:100);
      check (name ^ ": wire") wire (match_wire m);
      check_bool (name ^ ": hierarchy_ok") ok (Of_match.hierarchy_ok m);
      check (name ^ ": stripped") stripped
        (Of_match.to_string (Of_match.strip_invalid_fields m));
      check (name ^ ": more_specific") specific
        (String.concat ""
           (List.map
              (fun (_, b) -> if Of_match.more_specific m b then "1" else "0")
              golden_rows)))
    golden_rows golden_table

let arb_spec range =
  QCheck.make
    ~print:(fun s -> Of_match.to_string (Spec.to_match s))
    (Spec.gen range)

let prop_match_fields_kept =
  QCheck.Test.make ~name:"match keeps every field make was given" ~count:1000
    (arb_spec `Wide)
    (fun s -> Spec.of_match (Spec.to_match s) = s)

let prop_match_wire_roundtrip =
  QCheck.Test.make ~name:"match wire decode . encode = id" ~count:1000
    (arb_spec `Wire)
    (fun s ->
      let m = Spec.to_match s in
      match
        Of_wire.decode
          (Of_wire.encode
             (Of_message.make ~xid:0
                (Of_message.Stats_request (Of_message.Flow_stats_request m))))
      with
      | { payload = Of_message.Stats_request (Flow_stats_request m'); _ } ->
          Of_match.equal m m'
      | _ -> false)

(* A pair of matches that are often equal: narrow draws, and now and
   then a draw beside a rebuilt copy of itself. *)
let arb_match_pair =
  let open QCheck.Gen in
  let narrow = map Spec.to_match (Spec.gen `Narrow) in
  let pair =
    oneof
      [ pair narrow narrow;
        map
          (fun m -> (m, Spec.to_match (Spec.of_match m)))
          (map Spec.to_match (Spec.gen `Wide)) ]
  in
  QCheck.make
    ~print:(fun (a, b) -> Of_match.to_string a ^ " / " ^ Of_match.to_string b)
    pair

let prop_match_equal_is_rendering =
  QCheck.Test.make ~name:"match equal iff to_string equal" ~count:2000
    arb_match_pair
    (fun (a, b) ->
      Of_match.equal a b = String.equal (Of_match.to_string a) (Of_match.to_string b)
      && Of_match.equal a b = (a = b))

let prop_match_hash_respects_equal =
  QCheck.Test.make ~name:"match hash respects equal" ~count:2000
    arb_match_pair
    (fun (a, b) -> (not (Of_match.equal a b)) || Of_match.hash a = Of_match.hash b)

let prop_match_semantics_are_the_model =
  QCheck.Test.make ~name:"match hierarchy, strip, subsumption = option model"
    ~count:2000
    arb_match_pair
    (fun (a, b) ->
      let sa = Spec.of_match a and sb = Spec.of_match b in
      Of_match.hierarchy_ok a = Spec.hierarchy_ok sa
      && Spec.of_match (Of_match.strip_invalid_fields a)
         = Spec.strip_invalid_fields sa
      && Of_match.more_specific a b = Spec.more_specific sa sb
      && Of_match.more_specific b a = Spec.more_specific sb sa)

(* --- Retention and allocation budgets --- *)

(* [n] exact rules, as reactive forwarding installs them: one per TCP
   flow between random hosts, each with its own one-output action
   list. With [hits], every rule then matches three packets. *)
let exact_table ~hits n =
  let rng = Random.State.make [| 11 |] in
  let frames =
    List.init n (fun i ->
        tcp_frame
          ~src:(Random.State.int rng 64)
          ~dst:(64 + Random.State.int rng 64)
          ~sport:(1024 + i) ~dport:(Random.State.int rng 0x10000) ())
  in
  let t = Flow_table.create () in
  List.iter
    (fun f ->
      ignore
        (Flow_table.apply_flow_mod t ~now:Time.zero
           (fm ~idle:10 (Of_match.exact_of_frame ~in_port:1 f)
              [ Of_action.Output (2 + Random.State.int rng 4) ])))
    frames;
  if hits then
    for _ = 1 to 3 do
      List.iter
        (fun f -> ignore (Flow_table.lookup t ~now:(Time.ms 1) ~in_port:1 f))
        frames
    done;
  t

(* The budget is 1.5x the figure measured on OCaml 5.1.1: 44.5 words
   per exact entry with or without hits (a 15-word match, the 12-word
   entry, its action list and its index slot). Held as options and
   tuples, the match took 40 words, and each hit boxed two fresh int64
   counters: 69.5 words per entry before any hit, 75.5 after. *)
let test_exact_entry_retention () =
  List.iter
    (fun (what, hits) ->
      let n = 2000 in
      let t = exact_table ~hits n in
      check_int (what ^ ": rules installed") n (Flow_table.size t);
      let words =
        float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int n
      in
      check_bool
        (Printf.sprintf "%s: %.1f words per exact entry <= 66.8" what words)
        true (words <= 66.8))
    [ ("no hits", false); ("three hits each", true) ]

(* 1.5x the 15 words measured on OCaml 5.1.1: one 14-field record. The
   option record took 52. *)
let test_exact_of_frame_allocation () =
  let f = tcp_frame () in
  let build () = Of_match.exact_of_frame ~in_port:1 (Sys.opaque_identity f) in
  ignore (Sys.opaque_identity (build ()));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (build ()))
  done;
  let words = (Gc.minor_words () -. before) /. 1000. in
  check_bool
    (Printf.sprintf "%.1f words per exact_of_frame <= 22.5" words)
    true (words <= 22.5)

let suite =
  [ ("wildcard matches everything", `Quick, test_wildcard_matches_everything);
    ("exact match", `Quick, test_exact_match);
    ("l2 pair match", `Quick, test_l2_pair);
    ("prefix match", `Quick, test_prefix_match);
    ("prefix lengths outside 0..32 raise", `Quick, test_prefix_length_range);
    ("field hierarchy", `Quick, test_hierarchy);
    ("more_specific", `Quick, test_more_specific);
    ("actions apply", `Quick, test_actions_apply);
    ("vlan actions", `Quick, test_action_vlan);
    ("wire simple", `Quick, test_wire_simple_messages);
    ("wire features reply", `Quick, test_wire_features_reply);
    ("wire packet in/out", `Quick, test_wire_packet_in_out);
    ("wire flow mod", `Quick, test_wire_flow_mod);
    ("wire stream deframing", `Quick, test_wire_stream);
    ("wire golden bytes", `Quick, test_wire_golden);
    ("table priority", `Quick, test_table_priority);
    ("table add replaces", `Quick, test_table_add_replaces);
    ("table modify", `Quick, test_table_modify);
    ("table delete", `Quick, test_table_delete);
    ("table delete strict", `Quick, test_table_delete_strict);
    ("table idle timeout", `Quick, test_table_timeouts);
    ("table hard timeout", `Quick, test_table_hard_timeout);
    ("table hierarchy handling", `Quick, test_table_hierarchy_reject_and_lenient);
    ("table counters", `Quick, test_table_counters);
    ("table exact index + wildcard override", `Quick,
     test_table_exact_index_with_wildcard_override);
    ("error codes", `Quick, test_error_codes);
    QCheck_alcotest.to_alcotest prop_flow_mod_roundtrip;
    QCheck_alcotest.to_alcotest prop_message_size;
    QCheck_alcotest.to_alcotest prop_match_strip_idempotent;
    ("match golden forms", `Quick, test_match_golden);
    QCheck_alcotest.to_alcotest prop_match_fields_kept;
    QCheck_alcotest.to_alcotest prop_match_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_match_equal_is_rendering;
    QCheck_alcotest.to_alcotest prop_match_hash_respects_equal;
    QCheck_alcotest.to_alcotest prop_match_semantics_are_the_model;
    ("exact entry retention budget", `Quick, test_exact_entry_retention);
    ("exact_of_frame allocation budget", `Quick,
     test_exact_of_frame_allocation) ]
