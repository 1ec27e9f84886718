(* Tests for the fault catalog: every paper scenario must be detected
   by JURY with the faulty replica among the suspects. *)

module Scenarios = Jury_faults.Scenarios
module Runner = Jury_experiments.Runner
module Injector = Jury_faults.Injector
module Types = Jury_controller.Types
module Names = Jury_store.Cache_names

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let scenario_case (s : Scenarios.t) =
  ( Printf.sprintf "%s detected (%s)" s.Scenarios.name
      (Jury.Alarm.fault_name s.Scenarios.expected),
    `Slow,
    fun () ->
      let r = Runner.run ~switches:10 s in
      if not r.Runner.detected then
        Alcotest.failf "scenario %s missed; other alarms: %d"
          s.Scenarios.name
          (List.length r.Runner.other_alarms);
      check_bool "has detection time" true (r.Runner.detection_time_ms <> None)
  )

let test_catalog_complete () =
  check_int "nineteen scenarios" 19 (List.length Scenarios.all);
  List.iter
    (fun name ->
      check_bool ("find " ^ name) true (Scenarios.find name <> None))
    Scenarios.names;
  check_bool "unknown is None" true (Scenarios.find "nope" = None);
  (* every class is represented *)
  let klasses = List.map (fun s -> s.Scenarios.klass) Scenarios.all in
  check_bool "T1 present" true (List.mem `T1 klasses);
  check_bool "T2 present" true (List.mem `T2 klasses);
  check_bool "T3 present" true (List.mem `T3 klasses)

let test_injector_mutators () =
  let dpid = Jury_openflow.Of_types.Dpid.of_int 1 in
  let trigger = Types.Internal { app = "t"; work = Types.Proactive [] } in
  let cache_write =
    Types.Cache_write
      { cache = Names.linksdb; op = Jury_store.Event.Update; key = "k";
        value = "up" }
  in
  let net_send =
    Types.Network_send
      { dpid;
        payload =
          Jury_openflow.Of_message.Flow_mod
            (Jury_openflow.Of_message.flow_mod
               Jury_openflow.Of_match.wildcard_all
               [ Jury_openflow.Of_action.Output 1 ]) }
  in
  let actions = [ cache_write; net_send ] in
  check_int "drop cache writes" 1
    (List.length
       (Injector.drop_cache_writes_to ~cache:Names.linksdb trigger actions));
  check_int "drop network" 1
    (List.length (Injector.drop_network_sends trigger actions));
  (match
     Injector.corrupt_cache_values_to ~cache:Names.linksdb ~value:"down"
       trigger actions
   with
  | [ Types.Cache_write { value = "down"; _ }; _ ] -> ()
  | _ -> Alcotest.fail "corruption failed");
  (match Injector.blackhole_flow_mods trigger actions with
  | [ _; Types.Network_send { payload = Jury_openflow.Of_message.Flow_mod f; _ } ] ->
      check_bool "blackholed" true (f.Jury_openflow.Of_message.actions = [])
  | _ -> Alcotest.fail "blackhole failed");
  check_int "compose" 0
    (List.length
       (Injector.compose
          [ Injector.drop_cache_writes_to ~cache:Names.linksdb;
            Injector.drop_network_sends ]
          trigger actions))

(* A plan may spell a cache in any case: the mutator matches the cache,
   not the spelling. *)
let test_injector_any_spelling () =
  let trigger = Types.Internal { app = "t"; work = Types.Proactive [] } in
  let write cache =
    Types.Cache_write
      { cache = Names.of_string cache; op = Jury_store.Event.Update;
        key = "k"; value = "up" }
  in
  let actions = [ write "linksdb"; write "LinksDB"; write "HOSTDB" ] in
  (match Injector.drop_cache_writes_to ~cache:Names.linksdb trigger actions with
  | [ Types.Cache_write { cache; _ } ] ->
      check_bool "only HOSTDB survives" true (cache = Names.hostdb)
  | kept -> Alcotest.failf "%d writes kept, want 1" (List.length kept));
  check_int "every spelling corrupted" 2
    (List.length
       (List.filter
          (function
            | Types.Cache_write { value = "down"; _ } -> true | _ -> false)
          (Injector.corrupt_cache_values_to ~cache:Names.linksdb ~value:"down"
             trigger actions)))

let test_detection_attribution () =
  (* The runner must attribute the alarm to the armed replica, not just
     raise any alarm. *)
  let r = Runner.run ~switches:8 ~faulty:3 Scenarios.odl_flowmod_drop in
  check_bool "detected" true r.Runner.detected;
  List.iter
    (fun (a : Jury.Alarm.t) ->
      check_bool "faulty in suspects" true (List.mem 3 a.Jury.Alarm.suspects))
    r.Runner.matching_alarms

let test_detection_under_m2 () =
  (* The paper's worst case: full replication with two timing-faulty
     replicas in addition to the scenario's fault. *)
  let r =
    Runner.run ~switches:8 ~extra_slow:[ 5; 6 ] Scenarios.undesirable_flowmod
  in
  check_bool "detected despite slow replicas" true r.Runner.detected

let suite =
  [ ("catalog complete", `Quick, test_catalog_complete);
    ("injector mutators", `Quick, test_injector_mutators);
    ("injector matches any spelling", `Quick, test_injector_any_spelling);
    ("detection attribution", `Slow, test_detection_attribution);
    ("detection with m=2", `Slow, test_detection_under_m2) ]
  @ List.map scenario_case Scenarios.all
