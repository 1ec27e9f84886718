(* Tests for the clustered controller: value codecs, taints, pipeline,
   planning logic, cluster bootstrap and end-to-end forwarding. *)

open Jury_sim
open Jury_controller
module Of_match = Jury_openflow.Of_match
module Of_message = Jury_openflow.Of_message
module Of_action = Jury_openflow.Of_action
module Dpid = Jury_openflow.Of_types.Dpid
module Network = Jury_net.Network
module Switch = Jury_net.Switch
module Host = Jury_net.Host
module Builder = Jury_topo.Builder
module Fabric = Jury_store.Fabric
module Names = Jury_store.Cache_names
module Mac = Jury_packet.Addr.Mac
module Ipv4 = Jury_packet.Addr.Ipv4

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Values --- *)

let test_values_host () =
  let v = Values.Host.value ~dpid:(Dpid.of_int 3) ~port:2 ~ip:(Ipv4.of_host_index 5) in
  match Values.Host.parse v with
  | Some (dpid, port, ip) ->
      check_bool "dpid" true (Dpid.equal dpid (Dpid.of_int 3));
      check_int "port" 2 port;
      check_bool "ip" true (Ipv4.equal ip (Ipv4.of_host_index 5))
  | None -> Alcotest.fail "host value must parse"

let test_values_link () =
  let e1 = (Dpid.of_int 1, 2) and e2 = (Dpid.of_int 2, 3) in
  let k1 = Values.Link.key e1 e2 and k2 = Values.Link.key e2 e1 in
  Alcotest.(check string) "order insensitive" k1 k2;
  (match Values.Link.parse_key k1 with
  | Some (a, b) ->
      check_bool "endpoints preserved" true
        ((a = e1 && b = e2) || (a = e2 && b = e1))
  | None -> Alcotest.fail "link key must parse");
  check_bool "involves" true (Values.Link.involves k1 (Dpid.of_int 1) 2);
  check_bool "not involves other port" false
    (Values.Link.involves k1 (Dpid.of_int 1) 9);
  (* A key parses only with exactly one "--" between two endpoints. *)
  let a = "1:2" and b = "2:3" in
  List.iter
    (fun k -> check_bool k true (Values.Link.parse_key k = None))
    [ a ^ "-" ^ b; a ^ "---" ^ b; a ^ "----" ^ b; a ^ b;
      a ^ "--" ^ b ^ "--" ^ a; "--" ^ b; a ^ "--"; "--"; ""; "a-b"; "a---b" ]

let test_values_flow () =
  let m = Of_match.l2_pair ~src:(Mac.of_host_index 1) ~dst:(Mac.of_host_index 2) in
  let fmv = Of_message.flow_mod ~priority:77 m [ Of_action.Output 4 ] in
  let v = Values.Flow.value fmv in
  (match Values.Flow.parse v with
  | Some fmv' ->
      check_bool "match" true (Of_match.equal fmv'.Of_message.fm_match m);
      check_int "priority" 77 fmv'.Of_message.priority
  | None -> Alcotest.fail "flow value must parse");
  let key = Values.Flow.key (Dpid.of_int 9) m ~priority:77 in
  (match Values.Flow.dpid_of_key key with
  | Some d -> check_bool "dpid from key" true (Dpid.equal d (Dpid.of_int 9))
  | None -> Alcotest.fail "key must carry dpid");
  check_bool "bad value rejected" true (Values.Flow.parse "zzz" = None);
  List.iter
    (fun k ->
      check_bool (k ^ " is no dpid key") true (Values.parse_dpid_key k = None))
    [ ""; "g"; "-1"; "+1"; "0x1"; "1_0"; "10000000000000000" ];
  check_bool "flow key without a dpid" true
    (Values.Flow.dpid_of_key "/ab" = None
    && Values.Flow.dpid_of_key "ab" = None)

let test_values_switch_master () =
  let v = Values.Switch.value_connected ~master:4 ~ports:[ 3; 1; 2 ] in
  (match Values.Switch.parse v with
  | Some (master, ports) ->
      check_int "master" 4 master;
      Alcotest.(check (list int)) "sorted ports" [ 1; 2; 3 ] ports
  | None -> Alcotest.fail "switch value must parse");
  Alcotest.(check (option int)) "master value" (Some 6)
    (Values.Master.parse (Values.Master.value 6))

(* Store strings captured before the codecs dropped Printf; replicas
   compare them byte for byte, so none may move. *)
let test_values_golden () =
  let check = Alcotest.(check string) in
  let frame =
    Jury_packet.Frame.tcp_packet
      ~src:(Mac.of_host_index 2, Ipv4.of_host_index 2)
      ~dst:(Mac.of_host_index 7, Ipv4.of_host_index 7)
      ~src_port:40000 ~dst_port:443 ()
  in
  let m = Of_match.exact_of_frame ~in_port:3 frame in
  let dpid = Dpid.of_int 0x1a2b in
  check "flow key" "1a2b/f098fc8e6e800b8589bfcd4e136d3074"
    (Values.Flow.key dpid m ~priority:40000);
  check "flow value"
    ("010e005000000000000000000003020000000002020000000007ffff0000"
     ^ "0800000600000a0000030a0000089c4001bb00000000000000000000000a"
     ^ "00009c4000000005ffff0001000000080002ffff")
    (Values.Flow.value
       (Of_message.flow_mod ~priority:40000 ~idle_timeout:10
          ~buffer_id:(Some 5) m [ Of_action.Output 2 ]));
  check "host value" "1a2b:12:192.168.10.254"
    (Values.Host.value ~dpid ~port:12 ~ip:(Ipv4.of_string "192.168.10.254"));
  check "link key" "12c:65534--1a2b:7"
    (Values.Link.key (Dpid.of_int 300, 65534) (Dpid.of_int 0x1a2b, 7))

(* The decoder before it went table-driven, kept as the reference the
   new one must agree with. *)
let reference_hex_decode s =
  let n = String.length s in
  if n mod 2 <> 0 then None
  else
    try
      Some
        (String.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with Failure _ -> None

let test_hex_decode_matches_reference () =
  let accepted = ref 0 in
  for hi = 0 to 255 do
    for lo = 0 to 255 do
      let s = String.init 2 (fun i -> Char.chr (if i = 0 then hi else lo)) in
      let want = reference_hex_decode s in
      if Values.hex_decode s <> want then Alcotest.failf "hex_decode %S" s;
      if want <> None then incr accepted
    done
  done;
  (* 22 hex digits each way, plus the 22 "<digit>_" pairs that
     int_of_string reads as the digit alone. *)
  check_int "accepted pairs" ((22 * 22) + 22) !accepted;
  Alcotest.(check (option string)) "digit-underscore" (Some "\x0a")
    (Values.hex_decode "a_")

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex_decode (hex_encode s) = Some s" ~count:500
    QCheck.string (fun s ->
      let hex = Values.hex_encode s in
      Values.hex_decode hex = Some s
      && hex
         = String.concat ""
             (List.init (String.length s) (fun i ->
                  Printf.sprintf "%02x" (Char.code s.[i]))))

let prop_dpid_strings =
  QCheck.Test.make ~name:"dpid strings = Printf" ~count:500
    QCheck.(
      make ~print:Int64.to_string
        Gen.(
          oneof
            [ oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int ];
              ui64;
              map Int64.of_int (int_bound 0xFFFF) ]))
    (fun d ->
      let dpid = Dpid.of_int64 d in
      let key = Values.Switch.key dpid in
      let reads_back = function
        | Some d' -> Dpid.equal d' dpid
        | None -> false
      in
      Dpid.to_string dpid = Printf.sprintf "of:%016Lx" d
      && key = Printf.sprintf "%Lx" d
      && reads_back (Values.parse_dpid_key key)
      && reads_back (Values.parse_dpid_key (String.uppercase_ascii key))
      && reads_back (Values.parse_dpid_key ("0" ^ key))
      && reads_back
           (Values.Flow.dpid_of_key
              (Values.Flow.key dpid Of_match.wildcard_all ~priority:1)))

(* [Link.parse_key] reads back every [Link.key], whatever the dpids and
   ports, in either endpoint order. *)
let prop_link_key_roundtrip =
  let endpoint =
    QCheck.Gen.(
      pair
        (oneof
           [ oneofl [ 0L; 1L; -1L; Int64.min_int; Int64.max_int ]; ui64 ])
        (oneof [ oneofl [ 0; 0xFFFF; 0xFFFFFFFD ]; int_bound 0xFFFF ]))
  in
  QCheck.Test.make ~name:"Link.parse_key reads back Link.key" ~count:500
    QCheck.(
      make
        ~print:(fun ((d1, p1), (d2, p2)) ->
          Printf.sprintf "%Lx:%d %Lx:%d" d1 p1 d2 p2)
        (Gen.pair endpoint endpoint))
    (fun ((d1, p1), (d2, p2)) ->
      let e1 = (Dpid.of_int64 d1, p1) and e2 = (Dpid.of_int64 d2, p2) in
      let same (d, p) (d', p') = Dpid.equal d d' && p = p' in
      match Values.Link.parse_key (Values.Link.key e1 e2) with
      | Some (a, b) -> (same a e1 && same b e2) || (same a e2 && same b e1)
      | None -> false)

let prop_ipv4_strings =
  QCheck.Test.make ~name:"Ipv4.to_string = Printf" ~count:500
    QCheck.(
      make ~print:string_of_int
        Gen.(
          oneof
            [ oneofl
                [ 0; 0xFFFF_FFFF; 0x0A00_0001; 0x0909_0909; 0x6363_6363;
                  0x6464_6464; 0x0A63_640B ];
              map Int32.to_int ui32 ]))
    (fun x ->
      let ip = Ipv4.of_int x in
      let t = Ipv4.to_int ip in
      Ipv4.to_string ip
      = Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xFF)
          ((t lsr 16) land 0xFF) ((t lsr 8) land 0xFF) (t land 0xFF))

(* An IPv4 rendering allocates only its string: 3 words (header and two
   words of bytes) for the 15-byte 255.255.255.255, 2 for the 7-byte
   1.2.3.4. Budget 1.5x the larger, on OCaml 5.1.1. *)
let test_ipv4_to_string_allocation () =
  List.iter
    (fun x ->
      let ip = Ipv4.of_int x in
      ignore (Sys.opaque_identity (Ipv4.to_string ip));
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (Ipv4.to_string ip))
      done;
      let words = (Gc.minor_words () -. before) /. 1000. in
      if words > 4.5 then
        Alcotest.failf "Ipv4.to_string %s allocates %.1f words, budget 4.5"
          (Ipv4.to_string ip) words)
    [ 0xFFFF_FFFF; 0x0102_0304; 0x0A00_0001 ]

let gen_match st =
  let opt g = if Random.State.bool st then Some (g ()) else None in
  let int n = Random.State.int st n in
  let port () =
    match int 3 with
    | 0 ->
        List.nth
          Jury_openflow.Of_types.Port.
            [ controller; flood; all; local; none; in_port ]
          (int 6)
    | 1 -> 1 + int 64
    | _ -> int 0x10000
  in
  let mac () = Mac.of_int ((int 0x1000000 lsl 24) lor int 0x1000000) in
  let prefix () = (Ipv4.of_int ((int 0x10000 lsl 16) lor int 0x10000), int 33) in
  Test_openflow.Spec.to_match
    { in_port = opt port;
      dl_src = opt mac;
      dl_dst = opt mac;
      dl_vlan = opt (fun () -> if int 3 = 0 then None else Some (int 4096));
      dl_type =
        opt (fun () ->
            match int 3 with
            | 0 -> 0x0800
            | 1 -> int 0x10000
            | _ -> int 0x20000 (* wider than the four digits [pp] pads to *));
      nw_src = opt prefix;
      nw_dst = opt prefix;
      nw_proto = opt (fun () -> int 256);
      nw_tos = opt (fun () -> int 256);
      tp_src = opt (fun () -> int 0x10000);
      tp_dst = opt (fun () -> int 0x10000) }

(* [Of_match.pp] as it was written on Format, with the port and
   address printers it called, kept as the reference [to_string] (and
   so [pp]) must reproduce. *)
let reference_match_pp fmt m =
  let t = Test_openflow.Spec.of_match m in
  let first = ref true in
  let field name pp_v = function
    | None -> ()
    | Some v ->
        if not !first then Format.pp_print_string fmt ",";
        first := false;
        Format.fprintf fmt "%s=%a" name pp_v v
  in
  let port fmt p =
    let open Jury_openflow.Of_types.Port in
    if p = controller then Format.pp_print_string fmt "CONTROLLER"
    else if p = flood then Format.pp_print_string fmt "FLOOD"
    else if p = all then Format.pp_print_string fmt "ALL"
    else if p = local then Format.pp_print_string fmt "LOCAL"
    else if p = none then Format.pp_print_string fmt "NONE"
    else if p = in_port then Format.pp_print_string fmt "IN_PORT"
    else Format.pp_print_int fmt p
  in
  let mac fmt m =
    let t = Mac.to_int m in
    Format.fprintf fmt "%02x:%02x:%02x:%02x:%02x:%02x"
      ((t lsr 40) land 0xFF) ((t lsr 32) land 0xFF) ((t lsr 24) land 0xFF)
      ((t lsr 16) land 0xFF) ((t lsr 8) land 0xFF) (t land 0xFF)
  in
  let prefix fmt (p, b) =
    let t = Ipv4.to_int p in
    Format.fprintf fmt "%d.%d.%d.%d/%d"
      ((t lsr 24) land 0xFF) ((t lsr 16) land 0xFF) ((t lsr 8) land 0xFF)
      (t land 0xFF) b
  in
  Format.pp_print_string fmt "{";
  field "in_port" port t.in_port;
  field "dl_src" mac t.dl_src;
  field "dl_dst" mac t.dl_dst;
  field "dl_vlan"
    (fun fmt -> function
      | None -> Format.pp_print_string fmt "untagged"
      | Some v -> Format.pp_print_int fmt v)
    t.dl_vlan;
  field "dl_type" (fun fmt v -> Format.fprintf fmt "0x%04x" v) t.dl_type;
  field "nw_src" prefix t.nw_src;
  field "nw_dst" prefix t.nw_dst;
  field "nw_proto" Format.pp_print_int t.nw_proto;
  field "nw_tos" Format.pp_print_int t.nw_tos;
  field "tp_src" Format.pp_print_int t.tp_src;
  field "tp_dst" Format.pp_print_int t.tp_dst;
  if !first then Format.pp_print_string fmt "*";
  Format.pp_print_string fmt "}"

let prop_match_to_string_is_pp =
  QCheck.Test.make ~name:"Of_match.to_string = reference pp" ~count:2000
    (QCheck.make ~print:Of_match.to_string gen_match) (fun m ->
      let want = Format.asprintf "%a" reference_match_pp m in
      Of_match.to_string m = want
      && Format.asprintf "%a" Of_match.pp m = want)

(* [gen_match] stays in range; these take [to_string]'s integer fields
   through the [string_of_int] fallback. *)
let test_match_to_string_out_of_range () =
  List.iter
    (fun m ->
      Alcotest.(check string) "reference pp"
        (Format.asprintf "%a" reference_match_pp m)
        (Of_match.to_string m))
    [ Of_match.make ~in_port:(-3) ();
      Of_match.make ~tp_src:123456 ();
      Of_match.make ~dl_vlan:(Some (-1)) ~nw_proto:100000 ~nw_tos:(-42)
        ~tp_dst:99999 ();
      Of_match.make
        ~nw_src:(Ipv4.of_int 0x0a000001, 0)
        ~nw_dst:(Ipv4.of_int 0xc0a80001, 32)
        () ]

(* --- Flow memo --- *)

module Memo = Values.Flow.Memo

(* A pool of 400 rules, more than the memo's 256 keys, drawn from with
   repeats: lookups hit, miss, and run across several resets. *)
let prop_flow_memo_is_renderer =
  let gen =
    QCheck.Gen.(
      pair
        (array_repeat 400
           (triple (int_range 1 3) gen_match
              (pair (int_bound 0xFFFF) (int_range 1 64))))
        (list_size (int_range 300 1200) (int_bound 399)))
  in
  QCheck.Test.make ~name:"flow memo returns the renderer's strings" ~count:20
    (QCheck.make gen) (fun (pool, picks) ->
      let memo = Memo.create () in
      List.for_all
        (fun i ->
          let d, m, (priority, port) = pool.(i) in
          let dpid = Dpid.of_int d in
          let fm = Of_message.flow_mod ~priority m [ Of_action.Output port ] in
          Memo.key memo dpid m ~priority = Values.Flow.key dpid m ~priority
          && Memo.value memo fm = Values.Flow.value fm
          && Memo.size memo <= 512)
        picks
      && Memo.hits memo > 0)

let test_flow_memo_resets () =
  let memo = Memo.create () in
  let rule i = Of_match.make ~tp_dst:i () in
  let first = Memo.key memo (Dpid.of_int 1) (rule 0) ~priority:1 in
  check_bool "a hit is the stored string" true
    (first == Memo.key memo (Dpid.of_int 1) (rule 0) ~priority:1);
  for i = 1 to 256 do
    ignore (Memo.key memo (Dpid.of_int 1) (rule i) ~priority:1)
  done;
  check_bool "bounded" true (Memo.size memo <= 256);
  let again = Memo.key memo (Dpid.of_int 1) (rule 0) ~priority:1 in
  check_bool "rendered again after the reset" true (again != first);
  Alcotest.(check string) "same string" first again;
  check_int "lookups" 259 (Memo.lookups memo);
  check_int "one hit" 1 (Memo.hits memo)

(* Rules one field or the priority apart never share a key, even when
   the first one is already held. *)
let prop_flow_memo_keeps_rules_apart =
  let gen =
    QCheck.Gen.(
      triple gen_match (int_bound 0xFFFE)
        (oneofl [ `Tp_dst; `Nw_src; `In_port; `Priority ]))
  in
  QCheck.Test.make ~name:"flow memo keys differ when one field does"
    ~count:1000 (QCheck.make gen) (fun (m, priority, field) ->
      let bump = function None -> Some 1 | Some v -> Some (v + 1) in
      let s = Test_openflow.Spec.of_match m in
      let with_spec = Test_openflow.Spec.to_match in
      let m', priority' =
        match field with
        | `Tp_dst -> (with_spec { s with tp_dst = bump s.tp_dst }, priority)
        | `In_port -> (with_spec { s with in_port = bump s.in_port }, priority)
        | `Nw_src ->
            let src =
              match s.nw_src with
              | None -> Some (Ipv4.of_int 1, 32)
              | Some (p, bits) ->
                  Some (Ipv4.of_int (Ipv4.to_int p lxor 1), bits)
            in
            (with_spec { s with nw_src = src }, priority)
        | `Priority -> (m, priority + 1)
      in
      let memo = Memo.create () in
      let dpid = Dpid.of_int 7 in
      let a = Memo.key memo dpid m ~priority in
      let b = Memo.key memo dpid m' ~priority:priority' in
      a <> b && b = Values.Flow.key dpid m' ~priority:priority')

(* --- Taints --- *)

let test_taint () =
  let ext = Types.Taint.external_trigger ~primary:3 ~serial:42 in
  check_bool "external" true (Types.Taint.is_external ext);
  Alcotest.(check (option int)) "primary" (Some 3) (Types.Taint.primary_of ext);
  let int_t = Types.Taint.internal_trigger ~origin:5 ~seq:7 in
  check_bool "internal" false (Types.Taint.is_external int_t);
  Alcotest.(check (option int)) "no primary" None (Types.Taint.primary_of int_t);
  (match Types.Taint.of_string (Types.Taint.to_string ext) with
  | Some t -> check_bool "roundtrip" true (Types.Taint.equal t ext)
  | None -> Alcotest.fail "taint roundtrip");
  check_bool "garbage rejected" true (Types.Taint.of_string "nope" = None);
  (* Every taint the constructors print reads back, and the readers
     agree with it. *)
  let ints = [ 0; 1; 7; -1; -42; 1_000_000_007; max_int; min_int ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun (t, primary) ->
              let s = Types.Taint.to_string t in
              check_int ("hash of " ^ s) (Hashtbl.hash s) (Types.Taint.hash t);
              check_int ("printed length of " ^ s) (String.length s)
                (Types.Taint.printed_length t);
              match Types.Taint.of_string s with
              | Some t' ->
                  Alcotest.(check string) ("roundtrip " ^ s) s
                    (Types.Taint.to_string t');
                  Alcotest.(check (option int)) ("primary of " ^ s) primary
                    (Types.Taint.primary_of t');
                  check_bool ("external " ^ s) (primary <> None)
                    (Types.Taint.is_external t')
              | None -> Alcotest.failf "%s rejected" s)
            [ (Types.Taint.external_trigger ~primary:a ~serial:b, Some a);
              (Types.Taint.internal_trigger ~origin:a ~seq:b, None) ];
          Alcotest.(check string) "printed like %d"
            (Printf.sprintf "ext:%d:%d" a b)
            (Types.Taint.to_string
               (Types.Taint.external_trigger ~primary:a ~serial:b)))
        ints)
    ints;
  (* Malformed forms, out-of-range fields, and the integer syntaxes no
     constructor prints. *)
  List.iter
    (fun s ->
      check_bool (s ^ " rejected") true (Types.Taint.of_string s = None))
    [ ""; "ext"; "ext:"; "ext:1"; "ext::2"; "ext:1:"; "ext:1:2:3";
      "ext:1:2x"; "ext:-:2"; "ext:1:-"; "ext:--1:2"; "xyz:1:2"; "EXT:1:2";
      "ext:4611686018427387904:1"; "int:1:-4611686018427387905";
      "ext:+1:2"; "ext:0x1:2"; "ext:1_0:2"; "int: 1:2"; "ext:01:2";
      "ext:-0:2" ]

(* The hash a taint is minted with is the runtime's hash of its printed
   form, for both kinds, over random fields and the ends of the int
   range. *)
let prop_taint_hash_is_string_hash =
  let field =
    QCheck.Gen.(
      oneof
        [ oneofl [ 0; 1; -1; 9; 10; -10; 999; 1000; max_int; min_int ];
          int_range (-1000) 1_000_000;
          int ])
  in
  QCheck.Test.make ~name:"Taint.hash = Hashtbl.hash (to_string t)"
    ~count:2000
    QCheck.(
      make ~print:(fun (a, b) -> Printf.sprintf "%d %d" a b)
        (Gen.pair field field))
    (fun (a, b) ->
      List.for_all
        (fun t -> Types.Taint.hash t = Hashtbl.hash (Types.Taint.to_string t))
        [ Types.Taint.external_trigger ~primary:a ~serial:b;
          Types.Taint.internal_trigger ~origin:a ~seq:b ])

(* A mint allocates the taint's record (5 words) and nothing else: its
   hash is computed without rendering. Budget 1.5x that, on OCaml
   5.1.1. *)
let test_taint_mint_allocation () =
  let words kind =
    let mint serial =
      match kind with
      | `Ext -> Types.Taint.external_trigger ~primary:3 ~serial
      | `Int -> Types.Taint.internal_trigger ~origin:3 ~seq:serial
    in
    ignore (Sys.opaque_identity (mint 0));
    let before = Gc.minor_words () in
    for serial = 1_000_000 to 1_000_999 do
      ignore (Sys.opaque_identity (mint serial))
    done;
    (Gc.minor_words () -. before) /. 1000.
  in
  List.iter
    (fun (name, kind) ->
      let w = words kind in
      if w > 7.5 then
        Alcotest.failf "%s taint mint allocates %.1f words, budget 7.5" name w)
    [ ("external", `Ext); ("internal", `Int) ]

(* A table keyed on taints buckets and folds exactly like one keyed on
   their printed strings, so swapping one for the other moves no
   verdict, flush order or shard. *)
let test_taint_table_order () =
  let taints =
    List.init 1000 (fun i ->
        if i mod 3 = 0 then
          Types.Taint.internal_trigger ~origin:(i mod 7) ~seq:i
        else Types.Taint.external_trigger ~primary:(i mod 5) ~serial:(i * 37))
  in
  List.iter
    (fun size ->
      let typed = Types.Taint.Table.create size in
      let printed = Hashtbl.create size in
      List.iteri
        (fun i t ->
          Types.Taint.Table.replace typed t i;
          Hashtbl.replace printed (Types.Taint.to_string t) i)
        taints;
      let order =
        Types.Taint.Table.fold
          (fun t i acc -> (Types.Taint.to_string t, i) :: acc)
          typed []
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "fold order from size %d" size)
        (Hashtbl.fold (fun s i acc -> (s, i) :: acc) printed [])
        order)
    [ 16; 256 ]

(* A whole response compared as its sorted action fingerprints, the
   way the validator's consensus compares replicas. *)
let response_fingerprints actions =
  List.sort String.compare (List.map Types.action_fingerprint actions)

let test_fingerprints () =
  let a =
    Types.Cache_write
      { cache = Names.hostdb; op = Jury_store.Event.Create; key = "k"; value = "v" }
  in
  let b =
    Types.Network_send
      { dpid = Dpid.of_int 1; payload = Of_message.Hello }
  in
  check_bool "order insensitive" true
    (response_fingerprints [ a; b ] = response_fingerprints [ b; a ]);
  check_bool "content sensitive" false
    (response_fingerprints [ a ] = response_fingerprints [ b ])

(* --- Pipeline --- *)

let test_pipeline_serial_service () =
  let engine = Engine.create () in
  let p = Pipeline.create engine
      (Pipeline.config ~service_sigma:0.01 ~base_service:(Time.ms 1) ()) in
  let completions = ref [] in
  for i = 1 to 3 do
    Pipeline.submit p (fun () -> completions := (i, Engine.now engine) :: !completions)
  done;
  Engine.run engine;
  check_int "all completed" 3 (Pipeline.completed p);
  let times = List.rev_map snd !completions in
  let rec spaced = function
    | a :: (b :: _ as rest) ->
        Time.(Time.sub b a >= Time.of_float_us 900.) && spaced rest
    | _ -> true
  in
  check_bool "serialized" true (spaced times)

let test_pipeline_add_load_delays_next () =
  let engine = Engine.create () in
  let p = Pipeline.create engine
      (Pipeline.config ~service_sigma:0.01 ~base_service:(Time.ms 1) ()) in
  let t2 = ref Time.zero in
  Pipeline.submit p (fun () -> Pipeline.add_load p (Time.ms 10));
  Pipeline.submit p (fun () -> t2 := Engine.now engine);
  Engine.run engine;
  check_bool "second job pushed past stall" true Time.(!t2 >= Time.ms 11)

let test_pipeline_overload_drops () =
  let engine = Engine.create () in
  let p = Pipeline.create engine
      (Pipeline.config ~service_sigma:0.01 ~base_service:(Time.ms 10)
         ~overload_backlog:(Time.ms 100) ()) in
  for _ = 1 to 100 do
    Pipeline.submit p (fun () -> ())
  done;
  check_bool "dropped some" true (Pipeline.dropped p > 0);
  check_bool "overloaded" true (Pipeline.overloaded p)

(* A job costs the pipeline nothing beyond the submitted closure and
   its service-time draw: one completion closure serves every job, and
   a job submitted to an idle server starts at once, without a queue
   cell. A job that waits behind another takes one 3-word [Queue]
   cell. Measured after a warm-up round, against the draw's own words
   (a boxed float where the build does not inline across modules). *)
let test_pipeline_job_allocation () =
  let sigma = 0.01 and base_service = Time.us 10 in
  let draw =
    let rng = Rng.create 1 and mu = log (Time.to_float_us base_service) in
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (Rng.lognormal rng ~mu ~sigma))
    done;
    (Gc.minor_words () -. before) /. 1000.
  in
  let per_job name ~extra ~batch =
    let engine = Engine.create () in
    let p =
      Pipeline.create engine
        (Pipeline.config ~service_sigma:sigma ~base_service ())
    in
    let job () = () in
    let round () =
      for _ = 1 to 1000 / batch do
        for _ = 1 to batch do
          Pipeline.submit p job
        done;
        while Engine.step engine do
          ()
        done
      done
    in
    round ();
    let before = Gc.minor_words () in
    round ();
    let words = (Gc.minor_words () -. before) /. 1000. in
    check_int (name ^ ": every job completed") 2000 (Pipeline.completed p);
    let budget = draw +. extra +. 0.5 in
    check_bool
      (Printf.sprintf "%s: %.2f words per job, budget %.2f" name words budget)
      true (words < budget)
  in
  per_job "idle server" ~extra:0. ~batch:1;
  per_job "queued behind one" ~extra:1.5 ~batch:2

(* --- Cluster bootstrap and behaviour --- *)

let mk_cluster ?(profile = Profile.onos) ?(nodes = 3) ?(switches = 4)
    ?(hosts_per_switch = 1) () =
  let engine = Engine.create ~seed:5 () in
  let plan = Builder.linear ~switches ~hosts_per_switch in
  let network = Network.create engine plan () in
  let cluster = Cluster.create engine ~profile ~nodes ~network in
  Cluster.converge cluster;
  (engine, network, cluster)

let settle engine = Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1))

let test_bootstrap_discovery () =
  let _, _, cluster = mk_cluster () in
  let fabric = Cluster.fabric cluster in
  check_int "all switches registered" 4
    (Fabric.entry_count fabric ~node:0 ~cache:Names.switchdb);
  check_int "all links discovered" 3
    (Fabric.entry_count fabric ~node:1 ~cache:Names.linksdb);
  check_int "mastership published" 4
    (Fabric.entry_count fabric ~node:2 ~cache:Names.masterdb)

let test_mastership_round_robin () =
  let _, network, cluster = mk_cluster () in
  let masters =
    List.map
      (fun sw -> Cluster.master_of cluster (Switch.dpid sw))
      (Network.switches network)
  in
  check_bool "spread across nodes" true
    (List.length (List.sort_uniq compare masters) = 3)

let test_host_learning () =
  let engine, network, cluster = mk_cluster () in
  List.iter Host.join (Network.hosts network);
  settle engine;
  let fabric = Cluster.fabric cluster in
  check_int "hosts learned" 4
    (Fabric.entry_count fabric ~node:0 ~cache:Names.hostdb);
  check_int "arp learned" 4
    (Fabric.entry_count fabric ~node:1 ~cache:Names.arpdb);
  (* Host location correct. *)
  let h0 = Network.host network 0 in
  match
    Fabric.read fabric ~node:0 ~cache:Names.hostdb
      ~key:(Values.Host.key (Host.mac h0))
  with
  | Some v -> (
      match Values.Host.parse v with
      | Some (dpid, _, _) ->
          check_bool "attached to switch 1" true (Dpid.equal dpid (Dpid.of_int 1))
      | None -> Alcotest.fail "host value parse")
  | None -> Alcotest.fail "host 0 missing"

let test_end_to_end_forwarding () =
  let engine, network, cluster = mk_cluster () in
  List.iter Host.join (Network.hosts network);
  settle engine;
  let h0 = Network.host network 0 and h3 = Network.host network 3 in
  Host.send_tcp h0 ~dst_mac:(Host.mac h3) ~dst_ip:(Host.ip h3) ~src_port:1234
    ~dst_port:80 ();
  settle engine;
  check_bool "delivered across 4 switches" true (Host.received_count h3 > 0);
  (* Hop-by-hop reactive rules: every switch got exactly one rule. *)
  List.iter
    (fun sw ->
      check_int
        ("rule at switch " ^ Dpid.to_string (Switch.dpid sw))
        1
        (Jury_openflow.Flow_table.size (Switch.table sw)))
    (Network.switches network);
  check_int "flowsdb has all hops" 4
    (Fabric.entry_count (Cluster.fabric cluster) ~node:0 ~cache:Names.flowsdb)

let test_rest_install_local_and_remote () =
  let engine, network, cluster = mk_cluster () in
  settle engine;
  let m = Of_match.l2_dst ~dst:(Mac.of_host_index 9) in
  let flow = Of_message.flow_mod ~priority:500 m [ Of_action.Output 1 ] in
  (* Install on a switch NOT mastered by node 0: must delegate through
     the store to the actual master (transparent remote directive). *)
  let dpid = Dpid.of_int 2 in
  check_bool "switch 2 not mastered by 0" true
    (Cluster.master_of cluster dpid <> 0);
  Cluster.rest cluster ~node:0 (Types.Install_flow { dpid; flow });
  settle engine;
  let sw = Network.switch network dpid in
  check_bool "rule reached remote switch" true
    (Jury_openflow.Flow_table.find_exact (Switch.table sw) m ~priority:500
    <> None)

let test_rest_delete () =
  let engine, network, cluster = mk_cluster () in
  settle engine;
  let m = Of_match.l2_dst ~dst:(Mac.of_host_index 9) in
  let flow = Of_message.flow_mod ~priority:500 m [ Of_action.Output 1 ] in
  let dpid = Dpid.of_int 1 in
  Cluster.rest cluster ~node:0 (Types.Install_flow { dpid; flow });
  settle engine;
  Cluster.rest cluster ~node:0 (Types.Delete_flow { dpid; fm_match = m });
  settle engine;
  let sw = Network.switch network dpid in
  check_bool "rule gone from switch" true
    (Jury_openflow.Flow_table.find_exact (Switch.table sw) m ~priority:500
    = None);
  check_int "flowsdb cleaned" 0
    (Fabric.entry_count (Cluster.fabric cluster) ~node:0 ~cache:Names.flowsdb)

let test_port_status_cleans_links () =
  let engine, network, cluster = mk_cluster () in
  settle engine;
  let fabric = Cluster.fabric cluster in
  let before = Fabric.entry_count fabric ~node:0 ~cache:Names.linksdb in
  check_int "three links" 3 before;
  let graph = (Network.plan network).Builder.graph in
  let edge = List.hd (Jury_topo.Graph.edges graph) in
  Network.take_link_down network edge.Jury_topo.Graph.a edge.Jury_topo.Graph.b;
  settle engine;
  check_int "one link removed" 2
    (Fabric.entry_count fabric ~node:0 ~cache:Names.linksdb)

let test_plan_determinism_across_replicas () =
  let engine, network, cluster = mk_cluster () in
  List.iter Host.join (Network.hosts network);
  settle engine;
  (* Two different replicas planning AS the same primary, on converged
     state, must produce identical responses — the paper's output-
     determinism assumption. *)
  let h0 = Network.host network 0 and h3 = Network.host network 3 in
  let frame =
    Jury_packet.Frame.tcp_packet
      ~src:(Host.mac h0, Host.ip h0)
      ~dst:(Host.mac h3, Host.ip h3)
      ~src_port:999 ~dst_port:80 ()
  in
  let trigger =
    Types.Packet_in
      ( Dpid.of_int 1,
        { Of_message.buffer_id = None; in_port = 1;
          reason = Of_message.No_match; frame } )
  in
  let primary = Cluster.master_of cluster (Dpid.of_int 1) in
  let plans =
    List.init 3 (fun i ->
        Controller.plan_as (Cluster.controller cluster i) ~as_id:primary trigger)
  in
  let fps = List.map response_fingerprints plans in
  check_bool "identical plans" true
    (List.for_all (fun fp -> fp = List.hd fps) fps);
  check_bool "plans act" true (List.for_all (fun p -> p <> []) plans)

let test_liveness_master () =
  let _, _, cluster = mk_cluster () in
  let ctrl = Cluster.controller cluster 0 in
  let d1 = Dpid.of_int 1 and d2 = Dpid.of_int 2 in
  let m1 = Cluster.master_of cluster d1 and m2 = Cluster.master_of cluster d2 in
  Alcotest.(check (option int))
    "higher master id wins"
    (Some (max m1 m2))
    (Controller.liveness_master_for_link ctrl d1 d2)

let test_mutator_and_fates () =
  let engine, _, cluster = mk_cluster () in
  settle engine;
  let ctrl = Cluster.controller cluster 0 in
  Controller.set_mutator ctrl (Some (fun _ _ -> []));
  let m = Of_match.l2_dst ~dst:(Mac.of_host_index 9) in
  let trigger =
    Types.Rest
      (Types.Install_flow
         { dpid = Dpid.of_int 1;
           flow = Of_message.flow_mod m [ Of_action.Output 1 ] })
  in
  let taint = Types.Taint.external_trigger ~primary:0 ~serial:1 in
  let execute () = Controller.shadow_execute ctrl ~as_id:0 ~taint trigger in
  Alcotest.(check int) "mutated to nothing" 0 (List.length (execute ()));
  Controller.set_mutator ctrl None;
  check_bool "restored" true (execute () <> []);
  Controller.set_omit_probability ctrl 1.0;
  check_bool "must omit at p=1" true
    (Controller.omitted (Controller.sample_response_fate ctrl));
  Controller.set_omit_probability ctrl 0.;
  let fate = Controller.sample_response_fate ctrl in
  check_bool "must respond at p=0" false (Controller.omitted fate);
  check_bool "positive latency" true
    Time.(Controller.fate_latency fate > Time.zero)

let test_flow_removed_cleans_store () =
  let engine, network, cluster = mk_cluster () in
  settle engine;
  let m = Of_match.l2_dst ~dst:(Mac.of_host_index 9) in
  let flow = Of_message.flow_mod ~priority:500 m [ Of_action.Output 1 ] in
  let dpid = Dpid.of_int 1 in
  Cluster.rest cluster ~node:0 (Types.Install_flow { dpid; flow });
  settle engine;
  check_int "flow stored" 1
    (Fabric.entry_count (Cluster.fabric cluster) ~node:0 ~cache:Names.flowsdb);
  (* Delete directly at the switch; the FLOW_REMOVED notification should
     clean the store. *)
  let sw = Network.switch network dpid in
  Switch.handle_control sw
    (Of_message.make ~xid:9
       (Of_message.Flow_mod
          { (Of_message.flow_mod ~priority:500 m []) with
            Of_message.command = Of_message.Delete_strict }));
  settle engine;
  check_int "flowsdb cleaned via FLOW_REMOVED" 0
    (Fabric.entry_count (Cluster.fabric cluster) ~node:0 ~cache:Names.flowsdb)

let test_proactive_dst_rules () =
  (* Vanilla ODL: destination rules appear at every switch as soon as
     hosts are discovered; traffic then flows without PACKET_INs. *)
  let engine, network, _cluster =
    mk_cluster ~profile:Profile.odl_vanilla ~switches:3 ()
  in
  List.iter Host.join (Network.hosts network);
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 3));
  List.iter
    (fun sw ->
      check_bool
        ("dst rules at " ^ Dpid.to_string (Switch.dpid sw))
        true
        (Jury_openflow.Flow_table.size (Switch.table sw) >= 3))
    (Network.switches network);
  (* A TCP packet now rides pre-installed rules end to end: no new
     reactive micro-flow gets installed (LLDP probes still PACKET_IN in
     the background, so count store entries rather than messages). *)
  let h0 = Network.host network 0 and h2 = Network.host network 2 in
  let flows_before =
    Fabric.entry_count (Cluster.fabric _cluster) ~node:0 ~cache:Names.flowsdb
  in
  Host.send_tcp h0 ~dst_mac:(Host.mac h2) ~dst_ip:(Host.ip h2) ~src_port:7777
    ~dst_port:80 ();
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.ms 500));
  check_bool "delivered" true (Host.received_count h2 > 0);
  check_int "no reactive rule installed" flows_before
    (Fabric.entry_count (Cluster.fabric _cluster) ~node:0 ~cache:Names.flowsdb)

let test_query_flows () =
  let engine, _network, cluster = mk_cluster () in
  settle engine;
  let dpid = Dpid.of_int 1 in
  let m = Of_match.l2_dst ~dst:(Mac.of_host_index 9) in
  Cluster.rest cluster ~node:0
    (Types.Install_flow
       { dpid; flow = Of_message.flow_mod ~priority:500 m [ Of_action.Output 1 ] });
  settle engine;
  (match Cluster.query_flows cluster ~node:2 dpid with
  | [ fmv ] ->
      check_bool "match readable from any replica" true
        (Of_match.equal fmv.Of_message.fm_match m)
  | l -> Alcotest.failf "expected one flow, got %d" (List.length l));
  check_int "other switch empty" 0
    (List.length (Cluster.query_flows cluster ~node:0 (Dpid.of_int 3)))

let test_failover () =
  let engine, network, cluster = mk_cluster ~nodes:3 ~switches:6 () in
  List.iter Host.join (Network.hosts network);
  settle engine;
  let victim = 1 in
  let orphans =
    List.filter
      (fun sw -> Cluster.master_of cluster (Switch.dpid sw) = victim)
      (Network.switches network)
  in
  check_bool "victim mastered switches" true (orphans <> []);
  Jury_faults.Injector.crash cluster ~node:victim;
  Cluster.fail_over cluster ~node:victim;
  settle engine;
  Alcotest.(check (list int)) "alive set" [ 0; 2 ] (Cluster.alive_nodes cluster);
  List.iter
    (fun sw ->
      check_bool "reassigned away from victim" true
        (Cluster.master_of cluster (Switch.dpid sw) <> victim))
    (Network.switches network);
  (* Traffic through a formerly-orphaned switch still works: the new
     master answers its PACKET_INs. *)
  let dpid = Switch.dpid (List.hd orphans) in
  let host_on_victim_switch =
    List.find
      (fun h ->
        let d, _ = Network.host_location network (Host.index h) in
        Dpid.equal d dpid)
      (Network.hosts network)
  in
  let other = Network.host network 0 in
  let fm_before = Switch.flow_mod_count (List.hd orphans) in
  Host.send_tcp host_on_victim_switch ~dst_mac:(Host.mac other)
    ~dst_ip:(Host.ip other) ~src_port:4242 ~dst_port:80 ();
  settle engine;
  check_bool "new master installed a rule" true
    (Switch.flow_mod_count (List.hd orphans) > fm_before);
  check_bool "traffic delivered" true (Host.received_count other > 0)

(* --- Standalone profile and dynamic election --- *)

let test_standalone_mastership () =
  (* A standalone (Ryu-style) profile has no clustered store: the one
     leader masters every switch, and failover moves everything to the
     lowest survivor instead of round-robining. *)
  let engine, network, cluster =
    mk_cluster ~profile:Profile.ryu ~nodes:3 ~switches:5 ()
  in
  check_bool "fabric is standalone" true
    (Fabric.standalone (Cluster.fabric cluster));
  List.iter
    (fun sw ->
      check_int "leader masters every switch" 0
        (Cluster.master_of cluster (Switch.dpid sw)))
    (Network.switches network);
  Jury_faults.Injector.crash cluster ~node:0;
  Cluster.fail_over cluster ~node:0;
  settle engine;
  List.iter
    (fun sw ->
      check_int "lowest survivor takes everything" 1
        (Cluster.master_of cluster (Switch.dpid sw)))
    (Network.switches network)

let election_trace ~crash_first ~crash_second () =
  (* One full election run: enable the protocol, crash the leader, then
     a second node; return the recorded leadership changes. *)
  let engine, _network, cluster = mk_cluster ~nodes:3 ~switches:6 () in
  Cluster.enable_election cluster
    { Cluster.period = Time.ms 50; timeout_beats = 2 };
  let events = ref [] in
  Cluster.on_leadership_change cluster (fun ~term ~failed ~leader ->
      events := (term, failed, leader) :: !events);
  ignore
    (Engine.schedule engine ~after:(Time.ms 200) (fun () ->
         Jury_faults.Injector.crash cluster ~node:crash_first));
  ignore
    (Engine.schedule engine ~after:(Time.ms 600) (fun () ->
         Jury_faults.Injector.crash cluster ~node:crash_second));
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  (List.rev !events, Cluster.current_term cluster, Cluster.leader cluster)

let test_election_deterministic () =
  (* Same seed, same crash schedule: the term sequence is a pure
     function of the run (the failure detector reads fault levers, not
     RNG), and the leader is always the lowest healthy id. *)
  let run () = election_trace ~crash_first:0 ~crash_second:1 () in
  let events, term, leader = run () in
  Alcotest.(check (list (triple int int int)))
    "term sequence" [ (2, 0, 1); (3, 1, 2) ] events;
  check_int "final term" 3 term;
  check_int "final leader" 2 leader;
  let events', term', leader' = run () in
  Alcotest.(check (list (triple int int int)))
    "same seed, same terms" events events';
  check_int "same final term" term term';
  check_int "same final leader" leader leader'

let test_election_rejoin_fresh_term () =
  (* A rejoined node is forgiven by the failure detector; crashing it
     again starts a fresh term rather than being swallowed. *)
  let engine, _network, cluster = mk_cluster ~nodes:3 ~switches:6 () in
  Cluster.enable_election cluster
    { Cluster.period = Time.ms 50; timeout_beats = 2 };
  let terms = ref [] in
  Cluster.on_leadership_change cluster (fun ~term ~failed:_ ~leader:_ ->
      terms := term :: !terms);
  let crash_at ms node =
    ignore
      (Engine.schedule engine ~after:(Time.ms ms) (fun () ->
           Jury_faults.Injector.crash cluster ~node))
  in
  crash_at 200 1;
  ignore
    (Engine.schedule engine ~after:(Time.ms 600) (fun () ->
         Jury_faults.Injector.heal cluster ~node:1;
         Cluster.rejoin cluster ~node:1));
  crash_at 900 1;
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.ms 1500));
  Alcotest.(check (list int)) "two distinct terms" [ 2; 3 ]
    (List.rev !terms);
  check_int "leader stays 0" 0 (Cluster.leader cluster)

(* --- Topology view and its route memo --- *)

(* Write [plan]'s switches (mastered by 0), links and hosts straight
   into one node's tables, as discovery and host learning would. *)
let write_topology fabric ~node (plan : Builder.plan) =
  let write cache key value =
    ignore (Fabric.write fabric ~node ~cache Jury_store.Event.Create ~key ~value)
  in
  let g = plan.Builder.graph in
  List.iter
    (fun dpid ->
      let host_ports =
        List.filter_map
          (fun (h : Builder.host_slot) ->
            if Dpid.equal h.dpid dpid then Some h.port else None)
          plan.Builder.hosts
      in
      let link_ports = List.map fst (Jury_topo.Graph.neighbors g dpid) in
      write Names.switchdb (Values.Switch.key dpid)
        (Values.Switch.value_connected ~master:0
           ~ports:(host_ports @ link_ports));
      write Names.masterdb (Values.Master.key dpid) (Values.Master.value 0))
    (Jury_topo.Graph.switches g);
  List.iter
    (fun (e : Jury_topo.Graph.edge) ->
      write Names.linksdb
        (Values.Link.key (e.a.dpid, e.a.port) (e.b.dpid, e.b.port))
        Values.Link.value_up)
    (Jury_topo.Graph.edges g);
  List.iter
    (fun (h : Builder.host_slot) ->
      write Names.hostdb
        (Values.Host.key (Mac.of_host_index h.host_index))
        (Values.Host.value ~dpid:h.dpid ~port:h.port
           ~ip:(Ipv4.of_host_index h.host_index)))
    plan.Builder.hosts

(* A controller that has never planned anything, on a copy of [node]'s
   tables. *)
let fresh_controller fabric ~node =
  let engine = Engine.create ~seed:5 () in
  let copy = Fabric.create engine ~consistency:Fabric.Eventual ~nodes:1 () in
  List.iter
    (fun cache ->
      List.iter
        (fun (key, value) ->
          ignore
            (Fabric.write copy ~node:0 ~cache Jury_store.Event.Create ~key
               ~value))
        (Fabric.entries fabric ~node ~cache))
    Names.all;
  Controller.create engine ~id:0 ~profile:Profile.onos ~fabric:copy
    ~flow_memo:(Values.Flow.Memo.create ())
    ~views:(Controller.Views.create ())

let packet_in ~in_port dpid frame =
  Types.Packet_in
    ( dpid,
      { Of_message.buffer_id = None; in_port; reason = Of_message.No_match;
        frame } )

(* Everything the memo serves, plus the plans built from it: every
   first hop and next hop between two switches, every flood set and
   flood action list, and a PACKET_IN toward every host plus a
   broadcast ARP at every switch. *)
let observe c (plan : Builder.plan) =
  let switches = Jury_topo.Graph.switches plan.Builder.graph in
  let pairs =
    List.concat_map (fun s -> List.map (fun d -> (s, d)) switches) switches
  in
  let ports dpid = 0 :: Controller.flood_ports c dpid ~in_port:0 in
  let src_mac = Mac.of_host_index 9999 and src_ip = Ipv4.of_host_index 9999 in
  let packet_in = packet_in ~in_port:1 in
  ( List.map (fun (s, d) -> Controller.first_hop c s d) pairs,
    List.map (fun (s, d) -> Controller.next_hop_choices c s d) pairs,
    List.concat_map
      (fun dpid ->
        List.map
          (fun in_port ->
            ( Controller.flood_ports c dpid ~in_port,
              Controller.flood_actions c dpid ~in_port ))
          (ports dpid))
      switches,
    List.concat_map
      (fun dpid ->
        Controller.plan c
          (packet_in dpid
             (Jury_packet.Frame.arp_request ~sender:(src_mac, src_ip)
                ~target:(Ipv4.of_host_index 0)))
        :: List.map
             (fun (h : Builder.host_slot) ->
               Controller.plan c
                 (packet_in dpid
                    (Jury_packet.Frame.tcp_packet ~src:(src_mac, src_ip)
                       ~dst:
                         ( Mac.of_host_index h.host_index,
                           Ipv4.of_host_index h.host_index )
                       ~src_port:7 ~dst_port:80 ())))
             plan.Builder.hosts)
      switches )

let memo_plans =
  [ Builder.linear ~switches:5 ~hosts_per_switch:1;
    Builder.three_tier ~hosts_per_edge:1;
    Builder.fat_tree ~k:4 ]

let test_route_memo_matches_graph () =
  List.iter
    (fun (plan : Builder.plan) ->
      let engine = Engine.create ~seed:5 () in
      let fabric = Fabric.create engine ~consistency:Fabric.Eventual ~nodes:1 () in
      write_topology fabric ~node:0 plan;
      let c =
        Controller.create engine ~id:0 ~profile:Profile.onos ~fabric
          ~flow_memo:(Values.Flow.Memo.create ())
          ~views:(Controller.Views.create ())
      in
      let g = Controller.view c in
      check_int (plan.Builder.name ^ ": view edges")
        (Jury_topo.Graph.edge_count plan.Builder.graph)
        (Jury_topo.Graph.edge_count g);
      let switches = Jury_topo.Graph.switches g in
      let root = List.hd switches in
      let tree = Jury_topo.Graph.bfs_tree g root in
      (* The out port of [Graph.path]'s first hop, -1 for no path. *)
      let path_first_hop s d =
        match Jury_topo.Graph.path g (Jury_topo.Graph.bfs_tree g s) d with
        | Some ((_, _, out) :: _) -> out
        | Some [] | None -> -1
      in
      (* Twice: the first pass fills the memo, the second reads it. *)
      for _ = 1 to 2 do
        List.iter
          (fun s ->
            List.iter
              (fun d ->
                check_int "memoized first hop" (path_first_hop s d)
                  (Controller.first_hop c s d);
                check_bool "memoized next hops" true
                  (Controller.next_hop_choices c s d
                  = Jury_topo.Graph.next_hops g (Jury_topo.Graph.bfs_tree g d) s))
              switches;
            let host_ports =
              List.filter_map
                (fun (h : Builder.host_slot) ->
                  if Dpid.equal h.dpid s then Some h.port else None)
                plan.Builder.hosts
            in
            let all = List.sort_uniq compare (Jury_topo.Graph.tree_ports tree s @ host_ports) in
            List.iter
              (fun in_port ->
                let ports = Controller.flood_ports c s ~in_port in
                Alcotest.(check (list int))
                  "memoized flood set"
                  (List.filter (fun p -> p <> in_port) all)
                  ports;
                check_bool "memoized flood actions" true
                  (Controller.flood_actions c s ~in_port
                  = List.map (fun p -> Of_action.Output p) ports))
              (0 :: all))
          switches
      done)
    memo_plans

let test_route_memo_invalidation () =
  (* Node 1 is partitioned, so its tables change only by direct writes
     and the final state transfer. Its controller plans everything once
     (filling the memo) before each change, and must then plan exactly
     like a controller built fresh on the changed tables. *)
  let plan = Builder.three_tier ~hosts_per_edge:1 in
  let engine = Engine.create ~seed:5 () in
  let fabric = Fabric.create engine ~consistency:Fabric.Eventual ~nodes:2 () in
  Fabric.set_partitioned fabric ~node:1 true;
  write_topology fabric ~node:0 plan;
  write_topology fabric ~node:1 plan;
  let c =
    Controller.create engine ~id:1 ~profile:Profile.onos ~fabric
      ~flow_memo:(Values.Flow.Memo.create ())
      ~views:(Controller.Views.create ())
  in
  let same_as_fresh what =
    check_bool what true
      (observe c plan = observe (fresh_controller fabric ~node:1) plan)
  in
  same_as_fresh "before any change";
  let g = plan.Builder.graph in
  let e = List.hd (Jury_topo.Graph.edges g) in
  ignore
    (Fabric.write fabric ~node:1 ~cache:Names.linksdb Jury_store.Event.Delete
       ~key:(Values.Link.key (e.a.dpid, e.a.port) (e.b.dpid, e.b.port))
       ~value:"");
  same_as_fresh "after a LINKSDB delete";
  let dpid = List.hd (Jury_topo.Graph.switches g) in
  let ports = Controller.flood_ports c dpid ~in_port:0 in
  ignore
    (Fabric.write fabric ~node:1 ~cache:Names.switchdb Jury_store.Event.Update
       ~key:(Values.Switch.key dpid)
       ~value:(Values.Switch.value_connected ~master:0 ~ports:(99 :: ports)));
  check_bool "new host port floods" true
    (List.mem 99 (Controller.flood_ports c dpid ~in_port:0));
  same_as_fresh "after a SWITCHDB update";
  (* Crash-rejoin: node 0's intact tables overwrite node 1's without
     any event reaching its listeners. *)
  Fabric.resync fabric ~from:0 ~node:1;
  Controller.invalidate_view c;
  check_int "link restored" (Jury_topo.Graph.edge_count g)
    (Jury_topo.Graph.edge_count (Controller.view c));
  same_as_fresh "after a state transfer"

(* --- One view per distinct topology --- *)

(* Writes to SWITCHDB and LINKSDB over four switches and five candidate
   links, two of which close cycles. *)
type topo_op =
  | Join of int * int * int list  (* switch, master, ports *)
  | Leave of int  (* SWITCHDB delete *)
  | Link of int * bool  (* candidate link, up or down *)
  | Unlink of int  (* LINKSDB delete *)

type topo_step =
  | Apply of topo_op * int list  (* to these replicas, in this order *)
  | Sync of int * int
      (* the first replica takes the second's SWITCHDB and LINKSDB,
         written in reverse key order *)

let view_switches = Array.init 4 (fun i -> Dpid.of_int (i + 1))

let view_links =
  [| ((0, 2), (1, 1)); ((1, 2), (2, 1)); ((2, 2), (3, 1)); ((3, 2), (0, 1));
     ((0, 3), (2, 3)) |]

let view_link_key l =
  let (a, pa), (b, pb) = view_links.(l) in
  Values.Link.key (view_switches.(a), pa) (view_switches.(b), pb)

let gen_topo_step =
  let open QCheck.Gen in
  let switch = int_bound 3 and link = int_bound 4 in
  let ports =
    map (List.sort_uniq compare) (list_size (int_bound 4) (int_range 1 4))
  in
  let op =
    frequency
      [ (3, map3 (fun s m ps -> Join (s, m, ps)) switch (int_bound 1) ports);
        (1, map (fun s -> Leave s) switch);
        (4, map2 (fun l up -> Link (l, up)) link bool);
        (1, map (fun l -> Unlink l) link) ]
  in
  let targets =
    oneofl
      [ [ 0 ]; [ 1 ]; [ 2 ]; [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 0; 1; 2 ];
        [ 2; 1; 0 ] ]
  in
  frequency
    [ (6, map2 (fun o ts -> Apply (o, ts)) op targets);
      (1, map2 (fun r s -> Sync (r, s)) (int_bound 2) (int_bound 2)) ]

let print_topo_step = function
  | Apply (op, ts) ->
      let op =
        match op with
        | Join (s, m, ps) ->
            Printf.sprintf "join(%d, master %d, [%s])" s m
              (String.concat ";" (List.map string_of_int ps))
        | Leave s -> Printf.sprintf "leave(%d)" s
        | Link (l, up) ->
            Printf.sprintf "link(%d, %s)" l (if up then "up" else "down")
        | Unlink l -> Printf.sprintf "unlink(%d)" l
      in
      Printf.sprintf "%s@[%s]" op
        (String.concat ";" (List.map string_of_int ts))
  | Sync (r, s) -> Printf.sprintf "sync(%d from %d)" r s

(* What a view's answers are a function of, read off [node]'s tables:
   the switches SWITCHDB lists with their port lists, and LINKSDB's up
   keys, in table order. *)
let view_content fabric ~node =
  ( List.filter_map
      (fun (k, v) ->
        Option.map
          (fun dpid ->
            ( dpid,
              match Values.Switch.parse v with
              | Some (_, ports) -> ports
              | None -> [] ))
          (Values.parse_dpid_key k))
      (Fabric.entries fabric ~node ~cache:Names.switchdb),
    List.filter_map
      (fun (k, v) -> if v = Values.Link.value_up then Some k else None)
      (Fabric.entries fabric ~node ~cache:Names.linksdb) )

(* Every answer planning reads off a view: each first hop between two of
   the four switches, each switch's link ports and its flood actions at
   every ingress port. *)
let view_answers c =
  let switches = Array.to_list view_switches in
  ( List.concat_map
      (fun s -> List.map (fun d -> Controller.first_hop c s d) switches)
      switches,
    List.map (Controller.link_ports c) switches,
    List.concat_map
      (fun s ->
        List.init 5 (fun in_port -> Controller.flood_actions c s ~in_port))
      switches )

(* Three replicas of one cluster share a table of views; each replica's
   tables move on their own (a standalone fabric replicates nothing).
   After every step each replica answers as a controller built fresh,
   with a table of its own, on a copy of its tables, and two replicas
   hold one view exactly when their content is equal. The plan tests
   compare a reused plan with a replan on the same replica, which reads
   the same view, so only a fresh controller catches a wrongly shared
   one. *)
let prop_views_shared_by_content =
  QCheck.Test.make ~name:"replicas share a view exactly when content agrees"
    ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list print_topo_step)
       QCheck.Gen.(list_size (int_range 1 40) gen_topo_step))
    (fun steps ->
      let engine = Engine.create ~seed:5 () in
      let fabric =
        Fabric.create engine ~consistency:Fabric.Eventual ~nodes:3
          ~standalone:true ()
      in
      let views = Controller.Views.create () in
      let ctrls =
        Array.init 3 (fun id ->
            Controller.create engine ~id ~profile:Profile.onos ~fabric
              ~flow_memo:(Values.Flow.Memo.create ()) ~views)
      in
      let write node cache key value =
        let op =
          match Fabric.read fabric ~node ~cache ~key with
          | Some _ when value = "" -> Jury_store.Event.Delete
          | Some _ -> Jury_store.Event.Update
          | None -> Jury_store.Event.Create
        in
        if not (op = Jury_store.Event.Create && value = "") then
          ignore (Fabric.write fabric ~node ~cache op ~key ~value)
      in
      let apply node = function
        | Join (s, master, ports) ->
            write node Names.switchdb
              (Values.Switch.key view_switches.(s))
              (Values.Switch.value_connected ~master ~ports)
        | Leave s ->
            write node Names.switchdb (Values.Switch.key view_switches.(s)) ""
        | Link (l, up) ->
            write node Names.linksdb (view_link_key l)
              (if up then Values.Link.value_up else Values.Link.value_down)
        | Unlink l -> write node Names.linksdb (view_link_key l) ""
      in
      let sync r s =
        List.iter
          (fun cache ->
            let theirs = Fabric.entries fabric ~node:s ~cache in
            List.iter
              (fun (k, _) ->
                if not (List.mem_assoc k theirs) then write r cache k "")
              (Fabric.entries fabric ~node:r ~cache);
            List.iter (fun (k, v) -> write r cache k v) (List.rev theirs))
          [ Names.switchdb; Names.linksdb ]
      in
      let agree () =
        Array.for_all
          (fun c ->
            let node = Controller.id c in
            view_answers c = view_answers (fresh_controller fabric ~node))
          ctrls
        && List.for_all
             (fun (a, b) ->
               Controller.view ctrls.(a) == Controller.view ctrls.(b)
               = (view_content fabric ~node:a = view_content fabric ~node:b))
             [ (0, 1); (1, 2); (0, 2) ]
      in
      List.for_all
        (fun step ->
          (match step with
          | Apply (op, targets) -> List.iter (fun r -> apply r op) targets
          | Sync (r, s) -> if r <> s then sync r s);
          agree ())
        steps)

(* --- Decoded host table --- *)

let test_host_table_follows_hostdb () =
  (* As in the route memo test, node 1 changes only by direct writes
     and the final state transfer. After each HOSTDB change the warmed
     controller must plan an IPv4 packet and an ARP reply toward every
     MAC, at every switch, exactly like a controller built fresh. *)
  let plan = Builder.linear ~switches:3 ~hosts_per_switch:2 in
  let engine = Engine.create ~seed:5 () in
  let fabric = Fabric.create engine ~consistency:Fabric.Eventual ~nodes:2 () in
  Fabric.set_partitioned fabric ~node:1 true;
  write_topology fabric ~node:0 plan;
  write_topology fabric ~node:1 plan;
  let c =
    Controller.create engine ~id:1 ~profile:Profile.onos ~fabric
      ~flow_memo:(Values.Flow.Memo.create ())
      ~views:(Controller.Views.create ())
  in
  let switches = Jury_topo.Graph.switches plan.Builder.graph in
  let hosts = plan.Builder.hosts in
  let host i = List.nth hosts i in
  let mac (h : Builder.host_slot) = Mac.of_host_index h.host_index in
  (* Both render hex letters, so their keys have an upper-case form. *)
  let extra = Mac.of_host_index 0xab and upper = Mac.of_host_index 0xcd in
  let macs = List.map mac hosts @ [ extra; upper ] in
  let src = (Mac.of_host_index 9999, Ipv4.of_host_index 9999) in
  let observe c =
    List.concat_map
      (fun dpid ->
        List.concat_map
          (fun m ->
            let dst = (m, Ipv4.of_host_index 1) in
            [ Controller.plan c
                (packet_in ~in_port:1 dpid
                   (Jury_packet.Frame.tcp_packet ~src ~dst ~src_port:7
                      ~dst_port:80 ()));
              Controller.plan c
                (packet_in ~in_port:1 dpid
                   (Jury_packet.Frame.arp_reply ~sender:src ~target:dst)) ])
          macs)
      switches
  in
  let same_as_fresh what =
    check_bool what true
      (observe c = observe (fresh_controller fabric ~node:1))
  in
  let write op key value =
    ignore (Fabric.write fabric ~node:1 ~cache:Names.hostdb op ~key ~value)
  in
  let at (h : Builder.host_slot) =
    Values.Host.value ~dpid:h.dpid ~port:h.port ~ip:(Ipv4.of_host_index 1)
  in
  same_as_fresh "before any change";
  write Jury_store.Event.Create (Values.Host.key extra) (at (host 5));
  same_as_fresh "after a create";
  write Jury_store.Event.Update (Values.Host.key (mac (host 0))) (at (host 5));
  same_as_fresh "after a move";
  write Jury_store.Event.Delete (Values.Host.key (mac (host 1))) "";
  same_as_fresh "after a delete";
  write Jury_store.Event.Update (Values.Host.key (mac (host 2))) "not-a-host";
  same_as_fresh "after an unparseable value";
  write Jury_store.Event.Create
    (String.uppercase_ascii (Values.Host.key upper))
    (at (host 0));
  same_as_fresh "after a non-canonical key";
  (* Crash-rejoin: node 0's HOSTDB, where none of the above happened,
     replaces node 1's without any event reaching its listeners. *)
  Fabric.resync fabric ~from:0 ~node:1;
  Controller.invalidate_view c;
  same_as_fresh "after a state transfer"

(* --- Allocation per plan --- *)

(* Minor words per call of [f], over 1000 calls after a warming one. *)
let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. 1000.

let test_plan_allocation () =
  (* A warmed ONOS replica plans from its memo: an IPv4 path install
     across a 24-switch line reads the first hop off the cached tree
     without building the 24-hop path, and an ARP flood reuses its
     Output list. The same flood arriving on a link port learns no
     host, so it bounds the flood apart from learning's share. Each
     budget is 1.5x the words measured on OCaml 5.1 (IPv4 100 when the
     memo was introduced; ARP 185 and 15 once learning rendered the
     sender MAC once), so that it holds on the OCaml versions CI builds
     with; building the path back costs 168 more words per plan. *)
  let plan = Builder.linear ~switches:24 ~hosts_per_switch:1 in
  let engine = Engine.create ~seed:5 () in
  let fabric = Fabric.create engine ~consistency:Fabric.Eventual ~nodes:1 () in
  write_topology fabric ~node:0 plan;
  let c =
    Controller.create engine ~id:0 ~profile:Profile.onos ~fabric
      ~flow_memo:(Values.Flow.Memo.create ())
      ~views:(Controller.Views.create ())
  in
  let first = List.hd plan.Builder.hosts
  and last = List.nth plan.Builder.hosts 23 in
  let addr (h : Builder.host_slot) =
    (Mac.of_host_index h.host_index, Ipv4.of_host_index h.host_index)
  in
  let ipv4 =
    packet_in ~in_port:first.port first.dpid
      (Jury_packet.Frame.tcp_packet ~src:(addr first) ~dst:(addr last)
         ~src_port:7 ~dst_port:80 ())
  and arp_on in_port =
    packet_in ~in_port first.dpid
      (Jury_packet.Frame.arp_request ~sender:(addr first)
         ~target:(snd (addr last)))
  and link_port =
    fst (List.hd (Jury_topo.Graph.neighbors plan.Builder.graph first.dpid))
  in
  let within what budget trigger =
    let words = words_per_call (fun () -> Controller.plan c trigger) in
    check_bool
      (Printf.sprintf "%s: %.1f words <= %g" what words budget)
      true (words <= budget)
  in
  within "IPv4 path install" 150. ipv4;
  within "ARP flood" 277.5 (arp_on first.port);
  within "ARP flood on a link port" 22.5 (arp_on link_port);
  (* Once the store holds the sender's HOSTDB, ARPDB and EDGEDB values,
     learning compares them in place and renders only its two keys:
     1.5x the 44 words measured on OCaml 5.1.1, of which the keys are
     17 and the flood 15. Rendering the three values to compare them
     cost 156. *)
  List.iter
    (function
      | Types.Cache_write { cache; op; key; value } ->
          ignore (Fabric.write fabric ~node:0 ~cache op ~key ~value)
      | _ -> ())
    (Controller.plan c (arp_on first.port));
  check_bool "a known host writes nothing" true
    (List.for_all
       (function Types.Cache_write _ -> false | _ -> true)
       (Controller.plan c (arp_on first.port)));
  within "ARP flood from a known host" 66. (arp_on first.port)

(* A response's fate is an immediate, and the load factor that scales
   its latency is computed in unboxed floats, so a draw allocates no
   more than its lognormal jitter and that jitter's conversion to a
   time do when measured on their own (a boxed float each where the
   build does not inline across modules). A release build allocates
   nothing per fate. Returning the fate as a [`Respond] block, with the
   load factor boxed, cost 5 words per fate in a release build and 13
   in a dev build. *)
let test_fate_allocation () =
  let engine, _, cluster = mk_cluster () in
  settle engine;
  let ctrl = Cluster.controller cluster 0 in
  let draw =
    let rng = Rng.create 1 and us = Sys.opaque_identity 80. in
    words_per_call (fun () -> Rng.lognormal rng ~mu:3. ~sigma:0.5)
    +. words_per_call (fun () -> Time.of_float_us (us *. 1.5))
  in
  List.iter
    (fun p ->
      Controller.set_omit_probability ctrl p;
      let words =
        words_per_call (fun () -> Controller.sample_response_fate ctrl)
      in
      check_bool
        (Printf.sprintf "omission %.2f: %.2f words per fate, budget %.2f" p
           words (draw +. 0.5))
        true
        (words < draw +. 0.5))
    [ 0.; 0.05 ]

(* [value_is] against [String.equal] on the rendering: the rendering
   itself, the rendering of a value one field apart, and near misses
   made by changing, dropping or adding one character or cutting the
   string short. *)
let prop_values_in_place =
  let open QCheck.Gen in
  let port =
    frequency
      [ (6, int_bound 70_000);
        (1, int_range (-100) 0);
        (1, oneofl [ max_int; min_int; 99_999; 100_000; 10 ]) ]
  in
  let dpid =
    frequency
      [ (3, map Int64.of_int (int_bound 0x1000));
        (1, map Int64.of_int int);
        (1, oneofl [ 0L; -1L; Int64.min_int; 0x0FFF_FFFF_FFFF_FFFFL ]) ]
  in
  let ip = int_bound 0xFFFF_FFFF and mac = int_bound 0xFFFF_FFFF_FFFF in
  let near s =
    let n = String.length s in
    let chars = "0123456789abcdef:.-of " in
    int_bound (max 0 (n - 1)) >>= fun i ->
    oneofl (List.init (String.length chars) (String.get chars)) >>= fun c ->
    oneofl
      [ s;
        String.mapi (fun j x -> if j = i then c else x) s;
        String.sub s 0 i ^ String.sub s (min n (i + 1)) (n - min n (i + 1));
        String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i);
        String.sub s 0 i;
        s ^ String.make 1 c ]
  in
  let case =
    dpid >>= fun d ->
    port >>= fun p ->
    ip >>= fun i ->
    mac >>= fun m ->
    oneofl [ (d, p, i, m); (Int64.add d 1L, p, i, m); (d, p + 1, i, m);
             (d, p, i lxor 0x100, m); (d, p, i, m lxor 0x10) ]
    >>= fun (d', p', i', m') ->
    let dpid' = Dpid.of_int64 d' and ip' = Ipv4.of_int i' in
    let mac' = Mac.of_int m' in
    near (Values.Host.value ~dpid:dpid' ~port:p' ~ip:ip') >>= fun host ->
    near (Values.Host.key mac') >>= fun arp ->
    near (Values.Edge.value ~dpid:dpid' ~port:p') >|= fun edge ->
    (Dpid.of_int64 d, p, Ipv4.of_int i, Mac.of_int m, host, arp, edge)
  in
  QCheck.Test.make ~name:"in-place value checks = String.equal" ~count:3000
    (QCheck.make
       ~print:(fun (_, _, _, _, h, a, e) -> String.concat " | " [ h; a; e ])
       case)
    (fun (dpid, port, ip, mac, host, arp, edge) ->
      Values.Host.value_is host ~dpid ~port ~ip
      = String.equal host (Values.Host.value ~dpid ~port ~ip)
      && Values.Arp.value_is arp mac = String.equal arp (Values.Host.key mac)
      && Values.Edge.value_is edge ~dpid ~port
         = String.equal edge (Values.Edge.value ~dpid ~port))

let suite =
  [ ("values: host", `Quick, test_values_host);
    ("values: link", `Quick, test_values_link);
    ("values: flow", `Quick, test_values_flow);
    ("values: switch/master", `Quick, test_values_switch_master);
    ("values: golden strings", `Quick, test_values_golden);
    ("hex_decode = int_of_string decoder", `Quick,
     test_hex_decode_matches_reference);
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_match_to_string_is_pp;
    QCheck_alcotest.to_alcotest prop_dpid_strings;
    QCheck_alcotest.to_alcotest prop_ipv4_strings;
    ("Ipv4.to_string allocation budget", `Quick,
     test_ipv4_to_string_allocation);
    QCheck_alcotest.to_alcotest prop_link_key_roundtrip;
    ("Of_match.to_string out-of-range ints", `Quick,
     test_match_to_string_out_of_range);
    QCheck_alcotest.to_alcotest prop_flow_memo_is_renderer;
    ("flow memo resets when full", `Quick, test_flow_memo_resets);
    QCheck_alcotest.to_alcotest prop_flow_memo_keeps_rules_apart;
    ("taints", `Quick, test_taint);
    ("taint tables fold like string tables", `Quick, test_taint_table_order);
    QCheck_alcotest.to_alcotest prop_taint_hash_is_string_hash;
    ("taint mint allocation budget", `Quick, test_taint_mint_allocation);
    ("response fingerprints", `Quick, test_fingerprints);
    ("pipeline serial service", `Quick, test_pipeline_serial_service);
    ("pipeline add_load", `Quick, test_pipeline_add_load_delays_next);
    ("pipeline overload", `Quick, test_pipeline_overload_drops);
    ("pipeline job allocation budget", `Quick, test_pipeline_job_allocation);
    ("bootstrap discovery", `Quick, test_bootstrap_discovery);
    ("mastership round robin", `Quick, test_mastership_round_robin);
    ("host learning", `Quick, test_host_learning);
    ("end-to-end forwarding", `Quick, test_end_to_end_forwarding);
    ("rest install incl. delegation", `Quick, test_rest_install_local_and_remote);
    ("rest delete", `Quick, test_rest_delete);
    ("port status cleans links", `Quick, test_port_status_cleans_links);
    ("plan determinism across replicas", `Quick, test_plan_determinism_across_replicas);
    ("liveness master election", `Quick, test_liveness_master);
    ("mutator and response fates", `Quick, test_mutator_and_fates);
    ("flow_removed cleans store", `Quick, test_flow_removed_cleans_store);
    ("proactive dst rules (vanilla ODL)", `Quick, test_proactive_dst_rules);
    ("mastership failover", `Quick, test_failover);
    ("standalone mastership (ryu)", `Quick, test_standalone_mastership);
    ("election deterministic across runs", `Quick,
     test_election_deterministic);
    ("election rejoin starts fresh term", `Quick,
     test_election_rejoin_fresh_term);
    ("northbound flow query", `Quick, test_query_flows);
    ("route memo = fresh graph", `Quick, test_route_memo_matches_graph);
    ("route memo dropped with the view", `Quick,
     test_route_memo_invalidation);
    QCheck_alcotest.to_alcotest prop_views_shared_by_content;
    ("host table follows HOSTDB", `Quick, test_host_table_follows_hostdb);
    ("plan allocation budget", `Quick, test_plan_allocation);
    ("response fate allocation budget", `Quick, test_fate_allocation);
    QCheck_alcotest.to_alcotest prop_values_in_place ]
