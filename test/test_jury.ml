(* Tests for JURY proper: snapshots, encapsulation, the validator's
   consensus/sanity/policy logic (fed synthetic responses), and the
   full deployment on a live cluster. *)

open Jury_sim
module Types = Jury_controller.Types
module Values = Jury_controller.Values
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Of_match = Jury_openflow.Of_match
module Of_message = Jury_openflow.Of_message
module Of_action = Jury_openflow.Of_action
module Dpid = Jury_openflow.Of_types.Dpid
module Mac = Jury_packet.Addr.Mac
module Snapshot = Jury.Snapshot
module Response = Jury.Response
module Validator = Jury.Validator
module Alarm = Jury.Alarm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Snapshot --- *)

let ev ?(origin = 0) ?(seq = 1) ?(cache = Names.hostdb) ?(key = "k") ?(value = "v")
    () =
  { Event.cache; op = Event.Create; key; value; origin; seq; taint = None }

let test_snapshot_order_insensitive () =
  let e1 = ev ~seq:1 () and e2 = ev ~seq:2 ~key:"other" () in
  let a = Snapshot.observe (Snapshot.observe Snapshot.pristine e1) e2 in
  let b = Snapshot.observe (Snapshot.observe Snapshot.pristine e2) e1 in
  check_bool "order insensitive" true (Snapshot.equal a b);
  check_int "count" 2 (Snapshot.count a)

let test_snapshot_content_sensitive () =
  let a = Snapshot.observe Snapshot.pristine (ev ~value:"x" ()) in
  let b = Snapshot.observe Snapshot.pristine (ev ~value:"y" ()) in
  check_bool "different events differ" false (Snapshot.equal a b);
  check_bool "pristine differs" false (Snapshot.equal a Snapshot.pristine)

(* --- Encapsulation --- *)

let test_encap_roundtrip () =
  let frame =
    Jury_packet.Frame.tcp_packet
      ~src:(Mac.of_host_index 0, Jury_packet.Addr.Ipv4.of_host_index 0)
      ~dst:(Mac.of_host_index 1, Jury_packet.Addr.Ipv4.of_host_index 1)
      ~src_port:5 ~dst_port:6 ()
  in
  let inner =
    Of_message.make ~xid:3
      (Of_message.Packet_in
         { buffer_id = None; in_port = 2; reason = Of_message.No_match; frame })
  in
  let outer = Jury.Encap.encapsulate inner in
  (match Jury.Encap.decapsulate outer with
  | Some inner' -> check_bool "roundtrip" true (Of_message.equal inner inner')
  | None -> Alcotest.fail "decap failed");
  let wire_length m = String.length (Jury_openflow.Of_wire.encode m) in
  check_int "overhead"
    (wire_length (Of_message.make ~xid:0 (Of_message.Packet_in outer))
     - wire_length inner)
    Jury.Encap.overhead_bytes;
  (* A normal PACKET_IN is not an encapsulation. *)
  check_bool "plain not decapsulated" true
    (Jury.Encap.decapsulate
       { Of_message.buffer_id = None; in_port = 1;
         reason = Of_message.No_match; frame }
    = None)

(* --- Validator with synthetic responses --- *)

let taint = Types.Taint.external_trigger ~primary:0 ~serial:1

let flow_for dpid =
  Of_message.flow_mod ~priority:100
    (Of_match.l2_pair ~src:(Mac.of_host_index 0) ~dst:(Mac.of_host_index 1))
    [ Of_action.Output 2 ]
  |> fun fmv -> (dpid, fmv)

let response_actions dpid =
  let d, fmv = flow_for dpid in
  [ Types.Cache_write
      { cache = Names.flowsdb;
        op = Event.Create;
        key = Values.Flow.key d fmv.Of_message.fm_match ~priority:100;
        value = Values.Flow.value fmv };
    Types.Network_send { dpid = d; payload = Of_message.Flow_mod fmv } ]

let mk_validator ?(k = 2) ?policies ?(timeout = Time.ms 100) ?retransmit
    ?degraded_quorum () =
  let engine = Engine.create () in
  let cfg =
    { (Jury.Jury_config.validator
         ~ack_peers_of:(fun o -> [ (o + 1) mod 4; (o + 2) mod 4 ])
         (Jury.Jury_config.make ?policies ?retransmit ?degraded_quorum ~k
            ~timeout ()))
      with
      master_lookup = (fun _ -> Some 0) }
  in
  (engine, Validator.create engine cfg)

let deliver v ~controller ~snapshot body =
  Validator.deliver v
    { Response.controller; taint; snapshot; sent_at = Time.zero; term = 0; body }

let cache_event_of_action ~origin = function
  | Types.Cache_write { cache; op; key; value } ->
      { Event.cache; op; key; value; origin; seq = 1;
        taint = Some taint }
  | Types.Network_send _ -> invalid_arg "not a cache write"

(* Delivers a response built here and tracked by [weak]; not inlined,
   so no stack slot of the caller keeps the response alive. *)
let[@inline never] deliver_tracked weak v ~controller ~snapshot body =
  let r =
    { Response.controller; taint; snapshot; sent_at = Time.zero; term = 0;
      body }
  in
  Weak.set weak 0 (Some r);
  Validator.deliver v r

let deliver_happy_path ?(track = Weak.create 1) v =
  (* primary 0, secondaries 1,2 all agree; cache event acked. *)
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver_tracked track v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  deliver v ~controller:2 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  let cache_ev = cache_event_of_action ~origin:0 (List.hd actions) in
  deliver v ~controller:0 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:1 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:2 ~snapshot:snap (Response.Cache_update cache_ev);
  let _, fmv = flow_for dpid in
  deliver v ~controller:0 ~snapshot:snap
    (Response.Network_write { dpid; flow = fmv })

let feed_happy_path engine v =
  deliver_happy_path v;
  Engine.run engine

(* A trigger decided by completeness cancels its validation timer; the
   dead timer stays queued until its deadline but must no longer pin
   the decided trigger's responses. *)
let test_validator_decided_releases_responses () =
  let engine, v = mk_validator ~timeout:(Time.sec 10) () in
  let track = Weak.create 1 in
  deliver_happy_path ~track v;
  check_int "decided by completeness" 1 (Validator.decided_count v);
  check_bool "timer still queued" true (Engine.pending_events engine > 0);
  Gc.full_major ();
  check_bool "primary response collectable before the deadline" false
    (Weak.check track 0);
  Engine.run engine;
  check_int "still one verdict" 1 (Validator.decided_count v)

let test_validator_happy_path () =
  let engine, v = mk_validator () in
  feed_happy_path engine v;
  check_int "decided early (completeness)" 1 (Validator.decided_count v);
  check_int "no faults" 0 (Validator.fault_count v);
  match Validator.verdicts v with
  | [ a ] ->
      check_bool "valid" true (a.Alarm.verdict = Alarm.Ok_valid);
      check_bool "fast decision" true
        Time.(Alarm.detection_time a < Time.ms 100)
  | _ -> Alcotest.fail "one verdict"

let test_validator_consensus_mismatch () =
  let engine, v = mk_validator () in
  let dpid = Dpid.of_int 1 in
  let good = response_actions dpid in
  let evil =
    List.map
      (function
        | Types.Network_send { dpid; payload = Of_message.Flow_mod fmv } ->
            Types.Network_send
              { dpid; payload = Of_message.Flow_mod { fmv with Of_message.actions = [] } }
        | a -> a)
      good
  in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions = evil });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions = good });
  deliver v ~controller:2 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions = good });
  Engine.run engine;
  check_int "fault raised" 1 (Validator.fault_count v);
  match Validator.alarms v with
  | [ a ] ->
      check_bool "consensus mismatch" true
        (match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.mem Alarm.Consensus_mismatch fs
        | _ -> false);
      Alcotest.(check (list int)) "primary suspected" [ 0 ] a.Alarm.suspects
  | _ -> Alcotest.fail "one alarm"

let feed_cache_and_network v ~actions ~dpid =
  let snap = Snapshot.pristine in
  let cache_ev = cache_event_of_action ~origin:0 (List.hd actions) in
  deliver v ~controller:0 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:1 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:2 ~snapshot:snap (Response.Cache_update cache_ev);
  let _, fmv = flow_for dpid in
  deliver v ~controller:0 ~snapshot:snap
    (Response.Network_write { dpid; flow = fmv })

let test_validator_dissenting_secondary () =
  let engine, v = mk_validator () in
  let dpid = Dpid.of_int 1 in
  let good = response_actions dpid in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions = good });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions = good });
  deliver v ~controller:2 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions = [] });
  feed_cache_and_network v ~actions:good ~dpid;
  Engine.run engine;
  match Validator.alarms v with
  | [ a ] -> Alcotest.(check (list int)) "dissenter suspected" [ 2 ] a.Alarm.suspects
  | _ -> Alcotest.fail "expected dissent alarm"

(* One trigger's actions — a FLOWSDB write, its FLOW_MOD and a
   PACKET_OUT — with the given buffer id and output port. Each call
   builds a fresh list. *)
let buffered_actions ~buffer ~port =
  let dpid = Dpid.of_int 1 in
  let m = Of_match.l2_pair ~src:(Mac.of_host_index 0) ~dst:(Mac.of_host_index 1) in
  let fmv =
    Of_message.flow_mod ~priority:100 ~buffer_id:buffer m
      [ Of_action.Output port ]
  in
  [ Types.Cache_write
      { cache = Names.flowsdb;
        op = Event.Create;
        key = Values.Flow.key dpid m ~priority:100;
        value = Values.Flow.value fmv };
    Types.Network_send { dpid; payload = Of_message.Flow_mod fmv };
    Types.Network_send
      { dpid;
        payload =
          Of_message.Packet_out
            { po_buffer_id = buffer; po_in_port = 3;
              po_actions = [ Of_action.Output port ]; po_frame = None } } ]

(* Consensus erases buffer ids (only the primary's switch allocated
   one) and ignores action order, and still tells a real difference
   apart, whichever lists its fingerprints are shared between. Lists
   that differ only so reach the fingerprints; equal ones never do. *)
let test_consensus_buffer_id_normalized () =
  let run ?degraded_quorum ?(primary = true) secondaries =
    let engine, v =
      mk_validator ?degraded_quorum ~k:(List.length secondaries) ()
    in
    let prim = buffered_actions ~buffer:(Some 7) ~port:2 in
    let snap = Snapshot.pristine in
    Validator.register_external v ~taint ~at:Time.zero ~primary:0
      ~secondaries:(List.map fst secondaries);
    if primary then
      deliver v ~controller:0 ~snapshot:snap
        (Response.Execution { role = `Primary; actions = prim });
    List.iter
      (fun (controller, actions) ->
        deliver v ~controller ~snapshot:snap
          (Response.Execution { role = `Secondary; actions }))
      secondaries;
    let cache_ev = cache_event_of_action ~origin:0 (List.hd prim) in
    List.iter
      (fun controller ->
        deliver v ~controller ~snapshot:snap (Response.Cache_update cache_ev))
      [ 0; 1; 2 ];
    (match List.nth prim 1 with
    | Types.Network_send { dpid; payload = Of_message.Flow_mod flow } ->
        deliver v ~controller:0 ~snapshot:snap
          (Response.Network_write { dpid; flow })
    | _ -> assert false);
    Engine.run engine;
    match Validator.verdicts v with
    | [ a ] -> a
    | _ -> Alcotest.fail "expected one verdict"
  in
  let unbuffered () = buffered_actions ~buffer:None ~port:2 in
  let a = run [ (1, unbuffered ()); (2, unbuffered ()) ] in
  check_bool "buffer ids ignored" true (a.Alarm.verdict = Alarm.Ok_valid);
  let a =
    run
      [ (1, unbuffered ());
        (2, unbuffered ());
        (3, buffered_actions ~buffer:None ~port:5) ]
  in
  check_bool "consensus mismatch" true
    (a.Alarm.verdict = Alarm.Faulty [ Alarm.Consensus_mismatch ]);
  Alcotest.(check (list int)) "only the odd one out" [ 3 ] a.Alarm.suspects;
  let buffered () = buffered_actions ~buffer:(Some 7) ~port:2 in
  let a = run [ (1, buffered ()); (2, List.rev (buffered ())) ] in
  check_bool "action order ignored" true (a.Alarm.verdict = Alarm.Ok_valid);
  (* The primary's response is lost: the secondaries alone form the
     degraded quorum, and agree only once buffer ids are erased. *)
  let a =
    run ~degraded_quorum:2 ~primary:false
      [ (1, buffered ()); (2, unbuffered ()) ]
  in
  check_bool "secondary quorum ignores buffer ids" true
    (a.Alarm.verdict = Alarm.Ok_degraded);
  let a =
    run ~degraded_quorum:2 ~primary:false
      [ (1, buffered ()); (2, buffered_actions ~buffer:None ~port:5) ]
  in
  check_bool "secondary quorum still tells a difference" true
    (a.Alarm.verdict = Alarm.Faulty [ Alarm.Response_timeout ])

(* The flow mirror follows a rule's value across an Update of the same
   key: afterwards a re-sent FLOW_MOD is backed only if it matches the
   new rule. *)
let test_flow_mirror_follows_update () =
  let engine, v = mk_validator ~k:0 () in
  let dpid = Dpid.of_int 1 in
  let m = Of_match.l2_pair ~src:(Mac.of_host_index 0) ~dst:(Mac.of_host_index 1) in
  let rule port = Of_message.flow_mod ~priority:100 m [ Of_action.Output port ] in
  let rule_a = rule 2 and rule_b = rule 3 in
  let key = Values.Flow.key dpid m ~priority:100 in
  List.iteri
    (fun seq (op, fmv) ->
      let internal = Types.Taint.internal_trigger ~origin:0 ~seq in
      Validator.deliver v
        { Response.controller = 0; taint = internal;
          snapshot = Snapshot.pristine; sent_at = Time.zero; term = 0;
          body =
            Response.Cache_update
              { Event.cache = Names.flowsdb; op; key;
                value = Values.Flow.value fmv; origin = 0; seq;
                taint = Some internal } })
    [ (Event.Create, rule_a); (Event.Update, rule_b) ];
  let resend serial fmv =
    let taint = Types.Taint.external_trigger ~primary:0 ~serial in
    let send body =
      Validator.deliver v
        { Response.controller = 0; taint; snapshot = Snapshot.pristine;
          sent_at = Time.zero; term = 0; body }
    in
    Validator.register_external v ~taint ~at:Time.zero ~primary:0
      ~secondaries:[];
    send
      (Response.Execution
         { role = `Primary;
           actions =
             [ Types.Network_send { dpid; payload = Of_message.Flow_mod fmv } ]
         });
    send (Response.Network_write { dpid; flow = fmv });
    taint
  in
  let taint_b = resend 10 rule_b in
  let taint_a = resend 11 rule_a in
  Engine.run engine;
  let verdict_of t =
    match
      List.find_opt
        (fun (a : Alarm.t) -> Types.Taint.equal a.Alarm.taint t)
        (Validator.verdicts v)
    with
    | Some a -> a.Alarm.verdict
    | None -> Alcotest.fail "trigger undecided"
  in
  check_bool "new rule backed by the mirror" true
    (verdict_of taint_b = Alarm.Ok_valid);
  check_bool "replaced rule flagged" true
    (verdict_of taint_a = Alarm.Faulty [ Alarm.Network_without_cache ])

let test_validator_state_aware_excuses () =
  let engine, v = mk_validator () in
  let dpid = Dpid.of_int 1 in
  let good = response_actions dpid in
  let prim_snap = Snapshot.pristine in
  let stale_snap = Snapshot.observe Snapshot.pristine (ev ()) in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:0 ~snapshot:prim_snap
    (Response.Execution { role = `Primary; actions = good });
  (* Both secondaries answered differently BUT from a different state:
     state-aware consensus must not raise a false alarm. *)
  deliver v ~controller:1 ~snapshot:stale_snap
    (Response.Execution { role = `Secondary; actions = [] });
  deliver v ~controller:2 ~snapshot:stale_snap
    (Response.Execution { role = `Secondary; actions = [] });
  feed_cache_and_network v ~actions:good ~dpid:(Dpid.of_int 1);
  Engine.run engine;
  check_int "no fault" 0 (Validator.fault_count v);
  check_int "counted unverifiable" 1 (Validator.count v Unverifiable)

let test_validator_naive_majority_false_alarm () =
  (* Same scenario with state_aware=false: the naive engine flags the
     primary — the ablation's false-positive mechanism. *)
  let engine = Engine.create () in
  let cfg =
    Jury.Jury_config.validator
      ~ack_peers_of:(fun _ -> [])
      (Jury.Jury_config.make ~state_aware:false ~k:2 ~timeout:(Time.ms 100)
         ())
  in
  let v = Validator.create engine cfg in
  let dpid = Dpid.of_int 1 in
  let good = response_actions dpid in
  let stale_snap = Snapshot.observe Snapshot.pristine (ev ()) in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:0 ~snapshot:Snapshot.pristine
    (Response.Execution { role = `Primary; actions = good });
  deliver v ~controller:1 ~snapshot:stale_snap
    (Response.Execution { role = `Secondary; actions = [] });
  deliver v ~controller:2 ~snapshot:stale_snap
    (Response.Execution { role = `Secondary; actions = [] });
  Engine.run engine;
  check_int "naive majority misfires" 1 (Validator.fault_count v)

let test_validator_nondet_rule () =
  let engine, v = mk_validator () in
  let snap = Snapshot.pristine in
  let variant port =
    [ Types.Network_send
        { dpid = Dpid.of_int 1;
          payload =
            Of_message.Packet_out
              { po_buffer_id = None; po_in_port = 1;
                po_actions = [ Of_action.Output port ]; po_frame = None } } ]
  in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions = variant 1 });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions = variant 2 });
  deliver v ~controller:2 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions = variant 3 });
  Engine.run engine;
  check_int "no fault" 0 (Validator.fault_count v);
  match Validator.verdicts v with
  | [ a ] ->
      check_bool "labelled non-deterministic" true
        (a.Alarm.verdict = Alarm.Ok_non_deterministic)
  | _ -> Alcotest.fail "one verdict"

let test_validator_timeout_missing_primary () =
  let engine, v = mk_validator () in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:1 ~snapshot:Snapshot.pristine
    (Response.Execution { role = `Secondary; actions = [] });
  Engine.run engine;
  match Validator.alarms v with
  | [ a ] ->
      check_bool "timeout fault" true
        (a.Alarm.verdict = Alarm.Faulty [ Alarm.Response_timeout ]);
      Alcotest.(check (list int)) "primary suspected" [ 0 ] a.Alarm.suspects;
      check_bool "detected at timeout" true
        Time.(Alarm.detection_time a >= Time.ms 100)
  | _ -> Alcotest.fail "expected timeout alarm"

let test_validator_cache_without_network () =
  let engine, v = mk_validator ~k:0 () in
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  let cache_only =
    List.filter (function Types.Cache_write _ -> true | _ -> false) actions
  in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0 ~secondaries:[];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions = cache_only });
  deliver v ~controller:0 ~snapshot:snap
    (Response.Cache_update (cache_event_of_action ~origin:0 (List.hd actions)));
  Engine.run engine;
  match Validator.alarms v with
  | [ a ] ->
      check_bool "cache-without-network" true
        (match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.mem Alarm.Cache_without_network fs
        | _ -> false)
  | _ -> Alcotest.fail "expected T2 alarm"

let test_validator_network_without_cache () =
  (* A misbehaving controller writes straight to the network: the OVS
     interceptor mints a taint of its own, so the validator sees an
     orphan FLOW_MOD with neither execution record nor cache backing. *)
  let engine, v = mk_validator ~k:0 () in
  let dpid = Dpid.of_int 1 in
  let _, fmv = flow_for dpid in
  Validator.deliver v
    { Response.controller = 0;
      taint = Types.Taint.internal_trigger ~origin:0 ~seq:1_000_001;
      snapshot = Snapshot.pristine;
      sent_at = Time.zero;
      term = 0;
      body = Response.Network_write { dpid; flow = fmv } };
  Engine.run engine;
  match Validator.alarms v with
  | [ a ] ->
      check_bool "network-without-cache" true
        (match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.mem Alarm.Network_without_cache fs
        | _ -> false)
  | _ -> Alcotest.fail "expected bypass alarm"

let test_validator_bypass_detail () =
  (* The same bypass seen through an external trigger whose primary
     response never arrived: decided at the timeout, with a detail that
     names both halves of the evidence. The FLOW_MOD arrives a second
     time under another sender; only its first delivery counts. *)
  let engine, v = mk_validator ~k:0 () in
  let dpid, fmv = flow_for (Dpid.of_int 1) in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0 ~secondaries:[];
  List.iter
    (fun controller ->
      deliver v ~controller ~snapshot:Snapshot.pristine
        (Response.Network_write { dpid; flow = fmv }))
    [ 0; 1 ];
  Engine.run engine;
  match Validator.alarms v with
  | [ a ] ->
      check_bool "network-without-cache" true
        (a.Alarm.verdict = Alarm.Faulty [ Alarm.Network_without_cache ]);
      Alcotest.(check (list int)) "one suspect entry" [ 0 ] a.Alarm.suspects;
      Alcotest.(check string)
        "detail" "FLOW_MOD on the wire with no cache backing and no response"
        a.Alarm.detail
  | _ -> Alcotest.fail "expected bypass alarm"

let test_completeness_counts_each_ack_once () =
  (* Controller 0's write needs acks from peers 1 and 2. Neither the
     origin's own report nor a second, re-stamped report from peer 1
     may stand in for peer 2. *)
  let engine, v = mk_validator ~k:0 () in
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  let snap = Snapshot.pristine in
  let _, fmv = flow_for dpid in
  let cache_ev = cache_event_of_action ~origin:0 (List.hd actions) in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0 ~secondaries:[];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions });
  deliver v ~controller:0 ~snapshot:snap
    (Response.Network_write { dpid; flow = fmv });
  deliver v ~controller:0 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:1 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:1 ~snapshot:snap
    (Response.Cache_update { cache_ev with Event.taint = None });
  check_int "one peer ack is not a quorum" 0 (Validator.decided_count v);
  deliver v ~controller:2 ~snapshot:snap (Response.Cache_update cache_ev);
  check_int "complete once both peers acked" 1 (Validator.decided_count v);
  Engine.run engine;
  check_int "valid" 0 (Validator.fault_count v)

let test_validator_cache_network_mismatch () =
  let engine, v = mk_validator ~k:0 () in
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  let _, fmv = flow_for dpid in
  let corrupted = { fmv with Of_message.actions = [] } in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0 ~secondaries:[];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions });
  deliver v ~controller:0 ~snapshot:snap
    (Response.Cache_update (cache_event_of_action ~origin:0 (List.hd actions)));
  deliver v ~controller:0 ~snapshot:snap
    (Response.Network_write { dpid; flow = corrupted });
  Engine.run engine;
  match Validator.alarms v with
  | [ a ] ->
      check_bool "mismatch" true
        (match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.mem Alarm.Cache_network_mismatch fs
        | _ -> false)
  | _ -> Alcotest.fail "expected mismatch alarm"

let test_validator_write_failure () =
  let engine, v = mk_validator ~k:0 () in
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0 ~secondaries:[];
  deliver v ~controller:0 ~snapshot:Snapshot.pristine
    (Response.Execution { role = `Primary; actions });
  deliver v ~controller:0 ~snapshot:Snapshot.pristine
    (Response.Write_failure
       { action = List.hd actions; reason = "failed to obtain lock" });
  Engine.run engine;
  check_int "fault" 1 (Validator.fault_count v);
  match Validator.alarms v with
  | [ a ] ->
      check_bool "lock failure reported as omission" true
        (match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.mem Alarm.Response_timeout fs
        | _ -> false);
      check_bool "detail mentions lock" true
        (String.length a.Alarm.detail > 0)
  | _ -> Alcotest.fail "expected alarm"

let test_validator_policy_check () =
  let policies =
    Jury_policy.Engine.create
      [ Jury_policy.Ast.rule ~name:"no-linksdb" ~cache:Names.linksdb () ]
  in
  let engine, v = mk_validator ~k:0 ~policies () in
  let actions =
    [ Types.Cache_write
        { cache = Names.linksdb; op = Event.Update; key = "l"; value = "down" } ]
  in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0 ~secondaries:[];
  deliver v ~controller:0 ~snapshot:Snapshot.pristine
    (Response.Execution { role = `Primary; actions });
  deliver v ~controller:0 ~snapshot:Snapshot.pristine
    (Response.Cache_update (cache_event_of_action ~origin:0 (List.hd actions)));
  Engine.run engine;
  match Validator.alarms v with
  | [ a ] ->
      check_bool "policy violation" true
        (match a.Alarm.verdict with
        | Alarm.Faulty [ Alarm.Policy_violation "no-linksdb" ] -> true
        | _ -> false)
  | _ -> Alcotest.fail "expected policy alarm"

let test_validator_internal_trigger () =
  (* Internal triggers have no registration and no secondaries: the
     validator creates the record from the first response. *)
  let engine, v = mk_validator ~k:0 () in
  let internal = Types.Taint.internal_trigger ~origin:3 ~seq:9 in
  let actions =
    [ Types.Cache_write
        { cache = Names.linksdb; op = Event.Delete; key = "l"; value = "" } ]
  in
  Validator.deliver v
    { Response.controller = 3; taint = internal; snapshot = Snapshot.pristine;
      sent_at = Time.zero;
      term = 0;
      body = Response.Execution { role = `Primary; actions } };
  Validator.deliver v
    { Response.controller = 3; taint = internal; snapshot = Snapshot.pristine;
      sent_at = Time.zero;
      term = 0;
      body =
        Response.Cache_update
          { Event.cache = Names.linksdb; op = Event.Delete; key = "l";
            value = ""; origin = 3; seq = 9;
            taint = Some internal } };
  Engine.run engine;
  check_int "decided" 1 (Validator.decided_count v);
  check_int "benign internal passes" 0 (Validator.fault_count v)

(* A response that arrives after its internal trigger's verdict (a
   channel duplicate, or a relay that lost the race) is late, as an
   external trigger's is: it must not open a second record and decide
   the trigger again. The memory of decided internal taints lasts one
   validation timeout, so it stays bounded. *)
let test_internal_trigger_decided_once () =
  let engine, v = mk_validator ~k:0 ~timeout:(Time.ms 100) () in
  let internal = Types.Taint.internal_trigger ~origin:3 ~seq:9 in
  let respond () =
    Validator.deliver v
      { Response.controller = 3; taint = internal;
        snapshot = Snapshot.pristine; sent_at = Time.zero; term = 0;
        body =
          Response.Execution
            { role = `Primary;
              actions =
                [ Types.Cache_write
                    { cache = Names.linksdb; op = Event.Delete; key = "l";
                      value = "" } ] } }
  in
  let relay () =
    Validator.deliver v
      { Response.controller = 3; taint = internal;
        snapshot = Snapshot.pristine; sent_at = Time.zero; term = 0;
        body =
          Response.Cache_update
            { Event.cache = Names.linksdb; op = Event.Delete; key = "l";
              value = ""; origin = 3; seq = 9;
              taint = Some internal } }
  in
  respond ();
  relay ();
  Engine.run engine;
  check_int "decided at its timeout" 1 (Validator.decided_count v);
  relay ();
  respond ();
  Engine.run engine;
  check_int "still one verdict" 1 (Validator.decided_count v);
  check_int "after-verdict responses are late" 2 (Validator.late_count v);
  check_int "no record reopened" 0 (Validator.pending_count v);
  (* One validation timeout after the verdict the taint is forgotten:
     a response that late opens a new record. *)
  ignore
    (Engine.schedule engine ~after:(Time.ms 101) (fun () -> relay ()));
  Engine.run engine;
  check_int "not late once forgotten" 2 (Validator.late_count v);
  check_int "decided again once forgotten" 2 (Validator.decided_count v)

let test_validator_flush () =
  let engine, v = mk_validator () in
  ignore engine;
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1 ];
  check_int "pending" 1 (Validator.pending_count v);
  Validator.flush v;
  check_int "flushed" 0 (Validator.pending_count v);
  check_int "decided as timeout" 1 (Validator.fault_count v)

let test_adaptive_timeout_shrinks () =
  let engine = Engine.create () in
  let cfg =
    Jury.Jury_config.validator
      ~ack_peers_of:(fun _ -> [])
      (Jury.Jury_config.make ~adaptive_timeout:true ~k:0
         ~timeout:(Time.ms 500) ())
  in
  let v = Validator.create engine cfg in
  check_bool "starts at max" true
    (Time.equal (Validator.current_timeout_value v) (Time.ms 500));
  (* Feed 30 fast, complete triggers: theta must shrink well below the
     500 ms ceiling. *)
  for i = 1 to 30 do
    let taint = Types.Taint.external_trigger ~primary:0 ~serial:(100 + i) in
    Validator.register_external v ~taint ~at:(Engine.now engine) ~primary:0
      ~secondaries:[];
    ignore
      (Engine.schedule engine ~after:(Time.ms 5) (fun () ->
           Validator.deliver v
             { Response.controller = 0;
               taint;
               snapshot = Snapshot.pristine;
               sent_at = Engine.now engine;
               term = 0;
               body = Response.Execution { role = `Primary; actions = [] } }));
    Engine.run engine
  done;
  let theta = Validator.current_timeout_value v in
  check_bool "theta shrank" true Time.(theta < Time.ms 100);
  check_bool "theta above floor" true Time.(theta >= Time.ms 10)

(* --- Lossy-channel hardening (DESIGN.md) --- *)

let test_degraded_instead_of_timeout () =
  (* The primary's execution response is lost in transit, both
     secondaries' equivalent views arrive and agree. Seed behaviour
     raises a response-timeout alarm against the primary; with a
     degraded quorum of 2 the trigger decides Ok_degraded instead. *)
  let feed v =
    let actions = response_actions (Dpid.of_int 1) in
    let snap = Snapshot.pristine in
    Validator.register_external v ~taint ~at:Time.zero ~primary:0
      ~secondaries:[ 1; 2 ];
    deliver v ~controller:1 ~snapshot:snap
      (Response.Execution { role = `Secondary; actions });
    deliver v ~controller:2 ~snapshot:snap
      (Response.Execution { role = `Secondary; actions })
  in
  let engine, v = mk_validator () in
  feed v;
  Engine.run engine;
  check_bool "seed behaviour: timeout alarm" true
    (match Validator.alarms v with
    | [ a ] -> (
        match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.mem Alarm.Response_timeout fs
        | _ -> false)
    | _ -> false);
  let engine, v = mk_validator ~degraded_quorum:2 () in
  feed v;
  Engine.run engine;
  check_int "no faults" 0 (Validator.fault_count v);
  check_int "decided degraded" 1 (Validator.count v Degraded);
  (match Validator.verdicts v with
  | [ a ] ->
      check_bool "ok-degraded verdict" true
        (a.Alarm.verdict = Alarm.Ok_degraded)
  | _ -> Alcotest.fail "one verdict");
  (* Straggling-secondary variant: primary + one secondary agree, the
     other secondary never answers — decided degraded, straggler
     accounted. *)
  let engine, v = mk_validator ~degraded_quorum:2 () in
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  feed_cache_and_network v ~actions ~dpid;
  Engine.run engine;
  check_int "no faults (straggler)" 0 (Validator.fault_count v);
  check_int "decided degraded (straggler)" 1 (Validator.count v Degraded);
  check_int "straggler accounted" 1 (Validator.straggler_count v)

let test_duplicate_response_not_double_counted () =
  (* The primary's response is lost and secondary 1's agreeing response
     arrives twice. The stale duplicate must not fake a 3-view quorum. *)
  let engine, v = mk_validator ~degraded_quorum:3 () in
  let actions = response_actions (Dpid.of_int 1) in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2; 3 ];
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  deliver v ~controller:2 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  Engine.run engine;
  check_int "stale duplicate discarded" 1 (Validator.duplicate_count v);
  check_int "not decided degraded" 0 (Validator.count v Degraded);
  check_bool "quorum not met by duplicate" true
    (match Validator.alarms v with
    | [ a ] -> (
        match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.mem Alarm.Response_timeout fs
        | _ -> false)
    | _ -> false)

(* The duplicate rule for each body kind: the same body again from the
   same controller is one stale Duplicate; a second controller's copy
   of a cache event is an ack, and of a FLOW_MOD the same write. Each
   row is fed to a fresh trigger with no secondaries and timed out. *)
let test_duplicate_rule_per_body_kind () =
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  let _, fmv = flow_for dpid in
  let execution c = (c, Response.Execution { role = `Primary; actions }) in
  let cache c =
    (c, Response.Cache_update (cache_event_of_action ~origin:0 (List.hd actions)))
  in
  let write c = (c, Response.Network_write { dpid; flow = fmv }) in
  let failure c =
    ( c,
      Response.Write_failure
        { action = List.hd actions; reason = "failed to obtain lock" } )
  in
  let details prefix (a : Alarm.t) =
    String.split_on_char ';' a.Alarm.detail
    |> List.filter (fun d -> String.starts_with ~prefix (String.trim d))
    |> List.length
  in
  let rows =
    [ ("Execution again", [ execution 0; execution 0 ], 1, ignore);
      ("Cache_update again", [ cache 0; cache 0 ], 1, ignore);
      ("Network_write again", [ write 0; write 0 ], 1, ignore);
      ( "Write_failure again",
        [ execution 0; failure 0; failure 0 ],
        1,
        fun a ->
          check_int "one cache write failed detail" 1
            (details "cache write failed" a) );
      ( "cache event from a second controller",
        [ execution 0; write 0; cache 0; cache 1; cache 2 ],
        0,
        fun a ->
          check_bool "acks complete the trigger before its timer" true
            (a.Alarm.verdict = Alarm.Ok_valid
            && Time.equal a.Alarm.decided_at Time.zero) );
      ( "FLOW_MOD from a second sender",
        [ write 1; write 2 ],
        0,
        fun a ->
          check_bool "one uncached write, blamed on its first sender" true
            (a.Alarm.verdict = Alarm.Faulty [ Alarm.Network_without_cache ]
            && a.Alarm.suspects = [ 1 ]) ) ]
  in
  List.iter
    (fun (name, deliveries, duplicates, check_verdict) ->
      let engine, v = mk_validator ~k:0 () in
      Validator.register_external v ~taint ~at:Time.zero ~primary:0
        ~secondaries:[];
      List.iter
        (fun (controller, body) ->
          deliver v ~controller ~snapshot:Snapshot.pristine body)
        deliveries;
      Engine.run engine;
      check_int (name ^ ": duplicates") duplicates (Validator.duplicate_count v);
      match Validator.verdicts v with
      | [ a ] -> check_verdict a
      | _ -> Alcotest.fail (name ^ ": expected one verdict"))
    rows

let test_retransmit_backoff_and_cap () =
  let rt = Jury.Jury_config.retransmit ~max_retries:2 () in
  let engine, v = mk_validator ~retransmit:rt () in
  let calls = ref [] in
  Validator.set_retransmit_handler v (fun _taint ~secondary ->
      calls := (Time.to_float_ms (Engine.now engine), secondary) :: !calls);
  let actions = response_actions (Dpid.of_int 1) in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v ~controller:0 ~snapshot:snap
    (Response.Execution { role = `Primary; actions });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  (* The second retry round falls past θτ = 100 ms, so re-attributing
     the trigger to the same primary every 90 ms restarts its
     validation clock and keeps it pending until 370 ms. *)
  List.iter
    (fun ms ->
      ignore
        (Engine.schedule engine ~after:(Time.ms ms) (fun () ->
             ignore (Validator.reattribute v ~taint ~primary:0 ~term:0))))
    [ 90; 180; 270 ];
  Engine.run engine;
  (* Only the straggler (2) is retried: at 0.4·θ = 40 ms, then the
     backoff doubles the gap (120 ms), then the retry cap stops the
     third round (280 ms). *)
  Alcotest.(check (list (pair (float 1e-6) int)))
    "backoff schedule" [ (40., 2); (120., 2) ] (List.rev !calls);
  check_int "retransmit count" 2 (Validator.count v Retransmit)

let test_channel_counters_reconcile () =
  let module Channel = Jury.Channel in
  let engine = Engine.create ~seed:77 () in
  let rng = Rng.split (Engine.rng engine) in
  let ch =
    Channel.create engine ~rng ~name:"test"
      (Channel.lossy ~drop:0.3 ~duplicate:0.2 ~jitter_us:50. ())
  in
  let callbacks = ref 0 in
  let d = ref 0 and dr = ref 0 and dup = ref 0 in
  for _ = 1 to 400 do
    match
      Channel.send ch ~footprint:Footprint.opaque ~delay:(Time.ms 1) (fun () ->
          incr callbacks)
    with
    | `Delivered -> incr d
    | `Dropped -> incr dr
    | `Duplicated -> incr dup
  done;
  Channel.note_retransmit ch;
  Engine.run engine;
  let s = Channel.stats ch in
  check_int "sent all" 400 s.Channel.sent;
  check_int "sent = delivered + dropped" s.Channel.sent
    (s.Channel.delivered + s.Channel.dropped);
  check_int "delivered matches outcomes" (!d + !dup) s.Channel.delivered;
  check_int "dropped matches outcomes" !dr s.Channel.dropped;
  check_int "duplicated matches outcomes" !dup s.Channel.duplicated;
  check_int "one callback per delivered copy"
    (s.Channel.delivered + s.Channel.duplicated)
    !callbacks;
  check_int "retransmit noted" 1 s.Channel.retransmitted;
  check_bool "loss exercised" true (s.Channel.dropped > 0);
  check_bool "duplication exercised" true (s.Channel.duplicated > 0)

(* An all-zero loss profile must behave like a bare [Engine.schedule]:
   one event at exactly the requested delay, and no draw from the
   channel's RNG (a draw would shift every seeded run that shares it). *)
let test_zero_loss_channel_is_bare_schedule () =
  let module Channel = Jury.Channel in
  let fire engine at () = at := Engine.now_ns engine :: !at in
  let chan_engine = Engine.create ~seed:77 () in
  let rng = Rng.split (Engine.rng chan_engine) in
  let untouched = Rng.copy rng in
  let ch =
    Channel.create chan_engine ~rng
      (Channel.lossy ~drop:0. ~duplicate:0. ~jitter_us:0. ())
  in
  let chan_at = ref [] in
  check_bool "delivered" true
    (Channel.send ch ~footprint:Footprint.opaque ~delay:(Time.ms 3)
       (fire chan_engine chan_at)
     = `Delivered);
  check_int "one event scheduled" 1 (Engine.pending_events chan_engine);
  let bare_engine = Engine.create ~seed:77 () in
  let bare_at = ref [] in
  ignore
    (Engine.schedule bare_engine ~after:(Time.ms 3) (fire bare_engine bare_at));
  Engine.run chan_engine;
  Engine.run bare_engine;
  Alcotest.(check (list int)) "same firing times" !bare_at !chan_at;
  check_int "at the requested delay" (Time.to_ns (Time.ms 3))
    (List.hd !chan_at);
  check_bool "no RNG draw" true (Rng.bits64 rng = Rng.bits64 untouched)

let test_report () =
  let engine, v = mk_validator () in
  feed_happy_path engine v;
  let r = Jury.Report.of_validator v in
  check_bool "healthy" true (Jury.Report.healthy r);
  check_int "decided" 1 r.Jury.Report.decided;
  check_bool "no suspect" true (Jury.Report.most_suspect r = None);
  (* A faulty verdict shows up attributed. *)
  let engine2, v2 = mk_validator () in
  Validator.register_external v2 ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  deliver v2 ~controller:1 ~snapshot:Snapshot.pristine
    (Response.Execution { role = `Secondary; actions = [] });
  Engine.run engine2;
  let r2 = Jury.Report.of_validator v2 in
  check_bool "unhealthy" false (Jury.Report.healthy r2);
  Alcotest.(check (option int)) "primary most suspect" (Some 0)
    (Jury.Report.most_suspect r2);
  (match r2.Jury.Report.suspects with
  | [ row ] ->
      check_int "one alarm" 1 row.Jury.Report.alarm_count;
      check_bool "kind recorded" true
        (List.mem_assoc "response-timeout" row.Jury.Report.fault_kinds)
  | _ -> Alcotest.fail "one suspect row");
  check_bool "renders" true (String.length (Jury.Report.to_string r2) > 0)

(* --- Deployment on a live cluster --- *)

(* A k=2 deployment on a 5-node cluster over six switches in a line,
   booted and then settled one more second (2 s in all). *)
let live_deployment profile =
  let cluster =
    Jury_experiments.Setup.build ~seed:21 ~switches:6 ~profile ~nodes:5 ()
  in
  let dep = Jury.Jury_config.install cluster (Jury.Jury_config.make ~k:2 ()) in
  Jury_experiments.Setup.boot cluster;
  let engine = Jury_controller.Cluster.engine cluster in
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  (engine, Jury_controller.Cluster.network cluster, cluster, dep)

let test_deployment_benign_and_faulty () =
  let engine, network, cluster, dep =
    live_deployment Jury_controller.Profile.onos
  in
  let v = Jury.Deployment.validator dep in
  let h0 = Jury_net.Network.host network 0 in
  let h5 = Jury_net.Network.host network 5 in
  Jury_net.Host.send_tcp h0 ~dst_mac:(Jury_net.Host.mac h5)
    ~dst_ip:(Jury_net.Host.ip h5) ~src_port:1000 ~dst_port:80 ();
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 2));
  let benign_verdicts = Validator.decided_count v in
  let benign_faults = Validator.fault_count v in
  check_bool "many triggers validated" true (benign_verdicts > 20);
  check_bool "benign mostly clean" true
    (float_of_int benign_faults /. float_of_int benign_verdicts < 0.05);
  check_bool "accounting: replication bytes" true
    (Jury.Deployment.replication_bytes dep > 0);
  check_bool "accounting: validator bytes" true
    (Jury.Deployment.validator_bytes dep > 0);
  (* Now corrupt a replica and watch JURY attribute the fault: replica
     1 blackholes the FLOW_MODs it sends while caching correct rules. *)
  let faulty = 1 in
  Jury_controller.Controller.set_mutator
    (Jury_controller.Cluster.controller cluster faulty)
    (Some Jury_faults.Injector.blackhole_flow_mods);
  let before = Validator.fault_count v in
  let dpid = Dpid.of_int 2 in
  Jury_controller.Cluster.rest cluster ~node:faulty
    (Types.Install_flow
       { dpid;
         flow =
           Of_message.flow_mod ~priority:300
             (Of_match.l2_dst ~dst:(Mac.of_host_index 42))
             [ Of_action.Output 1 ] });
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  check_bool "fault detected" true (Validator.fault_count v > before);
  check_bool "faulty node suspected" true
    (List.exists
       (fun (a : Alarm.t) -> List.mem faulty a.Alarm.suspects)
       (Validator.alarms v))

(* --- Standalone (Ryu-style) validation and failover re-attribution --- *)

let test_standalone_conservation () =
  (* A fault-free run on the standalone profile: every replicated
     trigger still gets exactly one verdict (state-blind voting changes
     what the consensus compares, never how many triggers decide). *)
  let engine, network, _, dep = live_deployment Jury_controller.Profile.ryu in
  let v = Jury.Deployment.validator dep in
  let h0 = Jury_net.Network.host network 0 in
  let h5 = Jury_net.Network.host network 5 in
  Jury_net.Host.send_tcp h0 ~dst_mac:(Jury_net.Host.mac h5)
    ~dst_ip:(Jury_net.Host.ip h5) ~src_port:1000 ~dst_port:80 ();
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 2));
  Validator.flush v;
  check_bool "triggers replicated" true
    (Jury.Deployment.replicated_trigger_count dep > 0);
  (* Internal (LLDP-probe) triggers are validated too, so decided can
     exceed the replicated external count — but never undershoot it,
     and nothing may be left undecided. *)
  check_bool "every replicated trigger decided" true
    (Validator.decided_count v
    >= Jury.Deployment.replicated_trigger_count dep);
  check_int "nothing pending" 0 (Validator.pending_count v);
  (* The leader masters every switch in standalone mode, so it is the
     primary on every southbound trigger. *)
  List.iter
    (fun (a : Alarm.t) ->
      match a.Alarm.primary with
      | Some p -> check_int "leader is primary" 0 p
      | None -> ())
    (Validator.alarms v)

let test_validator_reattribute () =
  (* Mid-flight leadership change: the trigger is re-judged against the
     new primary's responses (stamped with the new term) instead of
     timing out against the dead one. *)
  let engine, v = mk_validator () in
  let dpid = Dpid.of_int 1 in
  let actions = response_actions dpid in
  let snap = Snapshot.pristine in
  Validator.register_external v ~taint ~at:Time.zero ~primary:0
    ~secondaries:[ 1; 2 ];
  check_bool "unknown taint is refused" false
    (Validator.reattribute v
       ~taint:(Types.Taint.external_trigger ~primary:3 ~serial:99)
       ~primary:1 ~term:2);
  check_bool "reattributed" true
    (Validator.reattribute v ~taint ~primary:1 ~term:2);
  check_int "counted" 1 (Validator.count v Reattributed);
  (* Node 1 answered as secondary before the failover, then again as
     the new primary; both must count (dedup is per role). *)
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  deliver v ~controller:2 ~snapshot:snap
    (Response.Execution { role = `Secondary; actions });
  deliver v ~controller:1 ~snapshot:snap
    (Response.Execution { role = `Primary; actions });
  let cache_ev = cache_event_of_action ~origin:1 (List.hd actions) in
  deliver v ~controller:1 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:2 ~snapshot:snap (Response.Cache_update cache_ev);
  deliver v ~controller:3 ~snapshot:snap (Response.Cache_update cache_ev);
  let _, fmv = flow_for dpid in
  deliver v ~controller:1 ~snapshot:snap
    (Response.Network_write { dpid; flow = fmv });
  Engine.run engine;
  check_int "decided" 1 (Validator.decided_count v);
  check_int "no faults" 0 (Validator.fault_count v);
  match Validator.verdicts v with
  | [ a ] ->
      check_bool "valid on the new primary" true
        (a.Alarm.verdict = Alarm.Ok_valid);
      (match a.Alarm.primary with
      | Some p -> check_int "new primary attributed" 1 p
      | None -> Alcotest.fail "no primary on alarm");
      check_int "term stamped" 2 a.Alarm.term
  | _ -> Alcotest.fail "one verdict"

(* Failover attribution through a whole deployment: a REST trigger
   minted with node 1 as its primary is still in flight when the
   election declares node 1 dead. [handle_failover] re-drives it on the
   leader (node 0). The leader's primary execution must reach the
   validator, and node 1's own execution must not: node 1 was failed
   administratively, not crashed, so it still executes the trigger and
   would report it if the replicator kept the minted attribution. *)
let test_deployment_failover_attribution () =
  let module Cluster = Jury_controller.Cluster in
  let period = Time.ms 10 in
  let cluster =
    Jury_experiments.Setup.build ~seed:21 ~switches:6
      ~profile:Jury_controller.Profile.onos ~nodes:5 ()
  in
  let engine = Cluster.engine cluster in
  let installed_at = Time.to_ns (Engine.now engine) in
  let dep =
    Jury.Jury_config.install cluster
      (Jury.Jury_config.make ~k:2 ~timeout:(Time.sec 2)
         ~election:{ Cluster.period; timeout_beats = 1 }
         ())
  in
  Jury_experiments.Setup.boot cluster;
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  let v = Jury.Deployment.validator dep in
  let primaries = Hashtbl.create 16 in
  Validator.on_response v (fun (r : Response.t) ->
      match r.Response.body with
      | Response.Execution { role = `Primary; _ } ->
          Hashtbl.add primaries
            (Types.Taint.to_string r.Response.taint)
            r.Response.controller
      | _ -> ());
  (* The election beats every [period] from install time; send the
     request and fail its node just before the next beat, so the beat
     declares node 1 dead while node 1 is still executing it. *)
  let p = Time.to_ns period in
  let beats = ((Time.to_ns (Engine.now engine) - installed_at) / p) + 1 in
  let beat = installed_at + (beats * p) in
  ignore
    (Engine.schedule_at engine
       ~at:(Time.ns (beat - 20_000))
       (fun () ->
         Cluster.rest cluster ~node:1
           (Types.Install_flow
              { dpid = Dpid.of_int 2;
                flow =
                  Of_message.flow_mod ~priority:300
                    (Of_match.l2_dst ~dst:(Mac.of_host_index 42))
                    [ Of_action.Output 1 ] });
         Cluster.fail_over cluster ~node:1));
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 3));
  Validator.flush v;
  check_int "term 2" 2 (Cluster.current_term cluster);
  let moved =
    List.filter
      (fun (a : Alarm.t) ->
        Types.Taint.primary_of a.Alarm.taint = Some 1
        && a.Alarm.primary = Some 0)
      (Validator.verdicts v)
  in
  check_bool "the REST trigger was re-attributed" true (moved <> []);
  List.iter
    (fun (a : Alarm.t) ->
      let from =
        Hashtbl.find_all primaries (Types.Taint.to_string a.Alarm.taint)
      in
      check_bool "the new master's primary execution arrived" true
        (List.mem 0 from);
      check_bool "the failed node's primary execution did not" false
        (List.mem 1 from);
      check_int "judged under term 2" 2 a.Alarm.term;
      check_bool "valid on the new master" true
        (a.Alarm.verdict = Alarm.Ok_valid))
    moved

(* Zero-churn byte-identity: with election never enabled, a clustered
   run's forensic report is byte-identical to the seed's. The digests
   below were recorded when the leadership machinery landed; any later
   change that silently perturbs churn-free ONOS/ODL runs shows up as
   a digest mismatch here (print the report and re-pin only if the
   change is intentional). *)
let zero_churn_report profile =
  let engine, network, _, dep = live_deployment profile in
  let v = Jury.Deployment.validator dep in
  let h0 = Jury_net.Network.host network 0 in
  let h5 = Jury_net.Network.host network 5 in
  Jury_net.Host.send_tcp h0 ~dst_mac:(Jury_net.Host.mac h5)
    ~dst_ip:(Jury_net.Host.ip h5) ~src_port:1000 ~dst_port:80 ();
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 2));
  Validator.flush v;
  ignore (Jury.Deployment.channel_totals dep);
  Digest.to_hex (Digest.string (Jury.Report.to_string (Jury.Report.of_validator v)))

let test_zero_churn_byte_identity () =
  let check_digest name profile expected =
    let got = zero_churn_report profile in
    if got <> expected then
      Alcotest.failf "%s zero-churn report digest drifted: %s (pinned %s)"
        name got expected
  in
  check_digest "onos" Jury_controller.Profile.onos
    "06e1c88ee52ca46462758abf0d48bca8";
  check_digest "odl" Jury_controller.Profile.odl
    "4c9687a61612814d68a5b5f4a2a35589"

(* Fuzz: arbitrary response multisets never crash the validator, every
   registered trigger is eventually decided exactly once, and verdicts
   are deterministic in the input. *)
let prop_validator_total =
  QCheck.Test.make ~name:"validator decides everything exactly once"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 0 25)
              (pair (int_bound 3) (int_bound 5)))
    (fun deliveries ->
      let engine = Engine.create () in
      let cfg =
        Jury.Jury_config.validator
          ~ack_peers_of:(fun o -> [ (o + 1) mod 4 ])
          (Jury.Jury_config.make ~k:2 ~timeout:(Time.ms 50) ())
      in
      let v = Validator.create engine cfg in
      let taints =
        Array.init 6 (fun i ->
            Types.Taint.external_trigger ~primary:(i mod 4) ~serial:i)
      in
      Array.iteri
        (fun i taint ->
          Validator.register_external v ~taint ~at:Time.zero
            ~primary:(i mod 4) ~secondaries:[ (i + 1) mod 4 ])
        taints;
      List.iter
        (fun (ctrl, tn) ->
          let taint = taints.(tn) in
          let body =
            if ctrl mod 2 = 0 then
              Response.Execution
                { role = (if ctrl = tn mod 4 then `Primary else `Secondary);
                  actions = response_actions (Dpid.of_int (1 + ctrl)) }
            else
              Response.Cache_update
                { Event.cache = Names.flowsdb; op = Event.Create;
                  key = Printf.sprintf "k%d" ctrl; value = "v";
                  origin = ctrl; seq = tn;
                  taint = Some taint }
          in
          Validator.deliver v
            { Response.controller = ctrl; taint;
              snapshot = Snapshot.pristine; sent_at = Time.zero; term = 0; body })
        deliveries;
      Engine.run engine;
      Validator.decided_count v = Array.length taints
      && Validator.pending_count v = 0)

(* Wrapping adds the same bytes to every message. *)
let prop_encap_overhead_constant =
  QCheck.Test.make ~name:"encapsulation overhead is constant" ~count:500
    Test_openflow.arb_message (fun m ->
      let wire_length m = String.length (Jury_openflow.Of_wire.encode m) in
      let outer =
        Of_message.make ~xid:0 (Of_message.Packet_in (Jury.Encap.encapsulate m))
      in
      wire_length outer - wire_length m = Jury.Encap.overhead_bytes)

let suite =
  [ ("snapshot order-insensitive", `Quick, test_snapshot_order_insensitive);
    ("snapshot content-sensitive", `Quick, test_snapshot_content_sensitive);
    ("encapsulation roundtrip", `Quick, test_encap_roundtrip);
    ("validator happy path", `Quick, test_validator_happy_path);
    ("validator decided trigger releases its responses", `Quick,
     test_validator_decided_releases_responses);
    ("validator consensus mismatch", `Quick, test_validator_consensus_mismatch);
    ("validator dissenting secondary", `Quick, test_validator_dissenting_secondary);
    ("consensus ignores buffer ids", `Quick,
     test_consensus_buffer_id_normalized);
    ("flow mirror follows an update", `Quick, test_flow_mirror_follows_update);
    ("validator state-aware excuse", `Quick, test_validator_state_aware_excuses);
    ("validator naive majority FP", `Quick, test_validator_naive_majority_false_alarm);
    ("validator non-determinism rule", `Quick, test_validator_nondet_rule);
    ("validator timeout missing primary", `Quick, test_validator_timeout_missing_primary);
    ("validator cache-without-network", `Quick, test_validator_cache_without_network);
    ("validator network-without-cache", `Quick, test_validator_network_without_cache);
    ("validator bypass verdict detail", `Quick, test_validator_bypass_detail);
    ("completeness counts each ack once", `Quick,
     test_completeness_counts_each_ack_once);
    ("validator cache/network mismatch", `Quick, test_validator_cache_network_mismatch);
    ("validator write failure", `Quick, test_validator_write_failure);
    ("validator policy check", `Quick, test_validator_policy_check);
    ("validator internal trigger", `Quick, test_validator_internal_trigger);
    ("internal trigger decided once", `Quick,
     test_internal_trigger_decided_once);
    ("validator flush", `Quick, test_validator_flush);
    ("adaptive timeout shrinks", `Quick, test_adaptive_timeout_shrinks);
    ("degraded quorum instead of timeout", `Quick,
     test_degraded_instead_of_timeout);
    ("duplicate response not double-counted", `Quick,
     test_duplicate_response_not_double_counted);
    ("duplicate rule per body kind", `Quick, test_duplicate_rule_per_body_kind);
    ("retransmit backoff and cap", `Quick, test_retransmit_backoff_and_cap);
    ("channel counters reconcile", `Quick, test_channel_counters_reconcile);
    ( "zero-loss channel is a bare schedule",
      `Quick,
      test_zero_loss_channel_is_bare_schedule );
    ("standalone verdict conservation", `Quick, test_standalone_conservation);
    ("validator failover re-attribution", `Quick, test_validator_reattribute);
    ("deployment failover attribution", `Quick,
     test_deployment_failover_attribution);
    ("zero-churn byte identity (onos/odl)", `Quick,
     test_zero_churn_byte_identity);
    ("alarm report", `Quick, test_report);
    ("deployment benign + faulty", `Slow, test_deployment_benign_and_faulty);
    QCheck_alcotest.to_alcotest prop_validator_total;
    QCheck_alcotest.to_alcotest prop_encap_overhead_constant ]
