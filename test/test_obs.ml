(* Tests for the jury_obs causal trace layer: span-tree shape for a
   PACKET_IN trigger, zero-perturbation when disabled, the JSONL
   round-trip, and the JSON reader both the export and the bench gate
   parse with. *)

module Engine = Jury_sim.Engine
module Time = Jury_sim.Time
module Network = Jury_net.Network
module Host = Jury_net.Host
module Cluster = Jury_controller.Cluster
module Setup = Jury_experiments.Setup
module Profile = Jury_controller.Profile
module Types = Jury_controller.Types
module Trace = Jury_obs.Trace
module Span = Jury_obs.Span
module Export = Jury_obs.Export
module Json = Jury_obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small ONOS cluster (n=3, k=2, linear 4-switch topology) driven by
   one TCP connection, so the trace contains both convergence triggers
   and a data-plane PACKET_IN. Fixed seed: byte-identical across runs. *)
let run_fixture ?trace () =
  let cluster =
    Setup.build ~seed:5 ~switches:4 ?trace ~profile:Profile.onos ~nodes:3 ()
  in
  let engine = Cluster.engine cluster in
  let network = Cluster.network cluster in
  let deployment =
    Jury.Jury_config.install cluster (Jury.Jury_config.make ~k:2 ())
  in
  Setup.boot cluster;
  let h0 = Network.host network 0 in
  let h3 = Network.host network 3 in
  Host.send_tcp h0 ~dst_mac:(Host.mac h3) ~dst_ip:(Host.ip h3) ~src_port:4242
    ~dst_port:80 ();
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1));
  deployment

let verdict_signature deployment =
  Jury.Validator.verdicts (Jury.Deployment.validator deployment)
  |> List.map (fun (a : Jury.Alarm.t) ->
         ( Types.Taint.to_string a.Jury.Alarm.taint,
           Jury.Alarm.verdict_name a.Jury.Alarm.verdict ))

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* (a) one root span per PACKET_IN with k replicate children on
   distinct secondaries, pipeline-service spans and a verdict point,
   all time-ordered. *)
let test_span_tree () =
  let trace = Trace.create () in
  ignore (run_fixture ~trace ());
  let events = Trace.events trace in
  check_bool "trace nonempty" true (events <> []);
  check_int "nothing dropped" 0 (Trace.dropped trace);
  (* Emission order is time order. *)
  ignore
    (List.fold_left
       (fun prev (e : Trace.event) ->
         check_bool "timestamps non-decreasing" true (e.Trace.t_ns >= prev);
         e.Trace.t_ns)
       0 events);
  (* Exactly one root open per taint. *)
  let opens = Hashtbl.create 64 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.kind = Trace.Open Trace.Trigger then begin
        let taint = Option.get (Trace.taint_of e) in
        check_bool ("single root for " ^ taint) false (Hashtbl.mem opens taint);
        Hashtbl.add opens taint ()
      end)
    events;
  let roots = Span.assemble events in
  let packet_in (r : Span.t) =
    match List.assoc_opt "trigger" r.Span.open_attrs with
    | Some t -> has_prefix ~prefix:"PACKET_IN" t
    | None -> false
  in
  let closed_pkt =
    List.filter (fun r -> packet_in r && r.Span.closed_ns <> None) roots
  in
  check_bool "closed PACKET_IN root exists" true (closed_pkt <> []);
  let root = List.hd closed_pkt in
  let closed = Option.get root.Span.closed_ns in
  let replicas =
    List.filter (fun (c : Span.t) -> c.Span.phase = Trace.Replicate)
      root.Span.children
  in
  check_int "k=2 replicate children" 2 (List.length replicas);
  let replica_nodes = List.filter_map (fun c -> c.Span.node) replicas in
  check_int "replicas on distinct nodes" 2
    (List.length (List.sort_uniq compare replica_nodes));
  check_bool "replicas avoid the primary" false
    (List.exists (fun n -> Some n = root.Span.node) replica_nodes);
  check_bool "pipeline-service child present" true
    (List.exists
       (fun (c : Span.t) -> c.Span.phase = Trace.Pipeline_service)
       root.Span.children);
  check_bool "verdict point present" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.kind = Trace.Point Trace.Verdict)
       root.Span.points);
  (* Children nest inside the root's interval. *)
  List.iter
    (fun (c : Span.t) ->
      check_bool "child opens after root" true
        (c.Span.opened_ns >= root.Span.opened_ns);
      match c.Span.closed_ns with
      | None -> ()
      | Some c_closed ->
          check_bool "child closes after opening" true
            (c_closed >= c.Span.opened_ns);
          check_bool "child closes before root" true (c_closed <= closed))
    root.Span.children

(* (b) tracing disabled adds zero events and perturbs nothing. *)
let test_determinism () =
  let baseline = verdict_signature (run_fixture ()) in
  check_bool "fixture produces verdicts" true (baseline <> []);
  let disabled = Trace.null () in
  let with_disabled = verdict_signature (run_fixture ~trace:disabled ()) in
  check_int "disabled trace records nothing" 0 (Trace.length disabled);
  let enabled = Trace.create () in
  let with_enabled = verdict_signature (run_fixture ~trace:enabled ()) in
  check_bool "enabled trace records" true (Trace.length enabled > 0);
  let sig_t = Alcotest.(list (pair string string)) in
  Alcotest.check sig_t "disabled = no trace" baseline with_disabled;
  Alcotest.check sig_t "enabled = no trace" baseline with_enabled

(* (c) JSONL export round-trips and queries agree across the trip. *)
let test_jsonl_roundtrip () =
  let trace = Trace.create () in
  ignore (run_fixture ~trace ());
  let events = Trace.events trace in
  match Export.of_jsonl (Export.to_jsonl events) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok events' ->
      check_int "same cardinality" (List.length events) (List.length events');
      check_bool "structurally equal" true (events = events');
      let taint = Option.get (List.find_map Trace.taint_of events) in
      let q = Export.query ~taint events in
      check_bool "taint query nonempty" true (q <> []);
      check_bool "taint query agrees across trip" true
        (q = Export.query ~taint events');
      List.iter
        (fun e -> check_bool "taint stamped" true (Trace.taint_of e = Some taint))
        q;
      let verdicts = Export.query ~phase:Trace.Verdict events' in
      check_bool "phase filter nonempty" true (verdicts <> []);
      (match Export.query ~node:0 events' with
      | [] -> Alcotest.fail "node filter found nothing for node 0"
      | es ->
          List.iter
            (fun (e : Trace.event) ->
              check_bool "node filter" true (e.Trace.node = Some 0))
            es)

(* (d) The JSON reader on the shapes the bench gate and the trace
   export read, and on malformed input. *)
let json =
  Alcotest.testable (fun ppf v -> Fmt.string ppf (Json.to_string v)) ( = )

(* Shaped like `bench --json` output. *)
let bench_doc =
  {|{
  "jobs": 1,
  "mode": "quick",
  "experiments": [
    {"name": "profile-onos", "wall_s": 3.845, "events": 1415642, "events_per_sec": 368159.2}
  ],
  "firehose": [
  ],
  "micro_ns_per_op": {
    "policy-scale-100-compiled": 100.8
  }
}
|}

let json_ok =
  Json.
    [ ("null", Null);
      (" true ", Bool true);
      ("false", Bool false);
      ("0", Int 0);
      ("-17", Int (-17));
      ("1234567890123456789", Int 1234567890123456789);
      ("99999999999999999999", Float 1e20);
      ("2.5", Float 2.5);
      ("-0.125", Float (-0.125));
      ("1e3", Float 1000.);
      ("6.02E+23", Float 6.02e23);
      ("-4.5e-3", Float (-0.0045));
      ({|"a\"b\\c\/d\n\r\t\b\f"|}, String "a\"b\\c/d\n\r\t\b\012");
      ({|"\u0041\u00e9\u20ac\ud83d\ude00"|},
       String "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
      ("[]", List []);
      ("{}", Obj []);
      ("[1, [2, [3, []]], {\"k\": [null]}]",
       List [ Int 1; List [ Int 2; List [ Int 3; List [] ] ];
              Obj [ ("k", List [ Null ]) ] ]);
      ("{\"a\": {\"b\": {\"c\": -1.5}}, \"a\": 2}",
       Obj [ ("a", Obj [ ("b", Obj [ ("c", Float (-1.5)) ]) ]); ("a", Int 2) ]);
      ( bench_doc,
        Obj
          [ ("jobs", Int 1);
            ("mode", String "quick");
            ( "experiments",
              List
                [ Obj
                    [ ("name", String "profile-onos");
                      ("wall_s", Float 3.845);
                      ("events", Int 1415642);
                      ("events_per_sec", Float 368159.2) ] ] );
            ("firehose", List []);
            ( "micro_ns_per_op",
              Obj [ ("policy-scale-100-compiled", Float 100.8) ] ) ] ) ]

(* Malformed input and the byte offset its error must name. *)
let json_bad =
  [ ("", 0);
    ("   ", 3);
    ("nul", 3);
    ("tru e", 3);
    ("[1, 2", 5);
    ("[1 2]", 3);
    ("{\"a\" 1}", 5);
    ("{\"a\": 1,}", 8);
    ("{1: 2}", 1);
    ("\"abc", 4);
    ({|"\x"|}, 2);
    ({|"\u12"|}, 3);
    ({|"\ud800x"|}, 7);
    ("-", 0);
    ("1.2.3", 0);
    ("[] []", 3);
    ("@", 0) ]

let test_json_reader () =
  List.iter
    (fun (input, want) ->
      match Json.of_string input with
      | Ok v ->
          Alcotest.check json (Printf.sprintf "%S" input) want v;
          Alcotest.check json
            (Printf.sprintf "%S re-read" input)
            want
            (Result.get_ok (Json.of_string (Json.to_string v)))
      | Error e -> Alcotest.failf "%S rejected: %s" input e)
    json_ok;
  List.iter
    (fun (input, at) ->
      match Json.of_string input with
      | Ok v -> Alcotest.failf "%S accepted as %s" input (Json.to_string v)
      | Error e ->
          let suffix = Printf.sprintf " at byte %d" at in
          check_bool
            (Printf.sprintf "%S: %S names byte %d" input e at)
            true
            (String.ends_with ~suffix e))
    json_bad;
  Alcotest.(check string) "escape" {|q\"b\\n\nr\rt\tc\u0001é|}
    (Json.escape "q\"b\\n\nr\rt\tc\001é");
  check_int "ns timestamps round-trip exactly" max_int
    (match Json.of_string (Json.to_string (Json.Int max_int)) with
    | Ok (Json.Int i) -> i
    | _ -> -1)

let suite =
  [ ("packet_in span tree", `Quick, test_span_tree);
    ("disabled trace is inert", `Quick, test_determinism);
    ("jsonl round-trip + query", `Quick, test_jsonl_roundtrip);
    ("json reader cases", `Quick, test_json_reader) ]
