(* JURY's decision on hand-built inputs: each case files responses into
   a [Decide.input] directly and calls [Decide.verdict], with no engine,
   deployment or validator around it. *)

open Jury_sim
module Types = Jury_controller.Types
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Of_match = Jury_openflow.Of_match
module Of_message = Jury_openflow.Of_message
module Of_action = Jury_openflow.Of_action
module Dpid = Jury_openflow.Of_types.Dpid
module Mac = Jury_packet.Addr.Mac
module Snapshot = Jury.Snapshot
module Response = Jury.Response
module Alarm = Jury.Alarm
module Decide = Jury.Decide

let taint = Types.Taint.external_trigger ~primary:0 ~serial:1

(* A FLOW_MOD on switch 1 that outputs to [port]. *)
let send port =
  Types.Network_send
    { dpid = Dpid.of_int 1;
      payload =
        Of_message.Flow_mod
          (Of_message.flow_mod ~priority:100
             (Of_match.l2_pair ~src:(Mac.of_host_index 0)
                ~dst:(Mac.of_host_index 1))
             [ Of_action.Output port ]) }

let link_down =
  Types.Cache_write
    { cache = Names.linksdb; op = Event.Update; key = "l"; value = "down" }

(* A snapshot other than [Snapshot.pristine]. *)
let other_view =
  Snapshot.observe Snapshot.pristine
    { Event.cache = "HOSTDB"; op = Event.Create; key = "h"; value = "v";
      origin = 3; seq = 1; taint = None }

let execution ?(snapshot = Snapshot.pristine) controller role actions =
  { Response.controller; taint; snapshot; sent_at = Time.zero; term = 0;
    body = Response.Execution { role; actions } }

(* Primary 0 and the given secondaries, with [executions] filed in
   order. *)
let input ~secondaries executions =
  let p =
    { Decide.taint; primary = Some 0; term = 0; secondaries;
      executions = []; reports = []; writes = []; failures = [] }
  in
  List.iter (fun r -> assert (Decide.record p r)) executions;
  p

let config ?policies ?degraded_quorum ?state_aware () =
  Jury.Jury_config.validator
    (Jury.Jury_config.make ?policies ?degraded_quorum ?state_aware ~k:2 ())

let no_linksdb =
  Jury_policy.Engine.create
    [ Jury_policy.Ast.rule ~name:"no-linksdb" ~cache:"LINKSDB" () ]

type case = {
  name : string;
  cfg : Decide.config;
  p : Decide.input;
  timed_out : bool;
  verdict : Alarm.verdict;
  suspects : int list;
}

let cases () =
  [ (* The non-determinism rule needs 3 or more responses: a primary and
       one dissenting secondary are a tie, not all-distinct. *)
    { name = "k=1 split vote is unverifiable";
      cfg = config ();
      p =
        input ~secondaries:[ 1 ]
          [ execution 0 `Primary [ send 2 ];
            execution 1 `Secondary [ send 3 ] ];
      timed_out = false;
      verdict = Alarm.Ok_unverifiable;
      suspects = [] };
    { name = "three distinct responses are non-deterministic";
      cfg = config ();
      p =
        input ~secondaries:[ 1; 2 ]
          [ execution 0 `Primary [ send 2 ];
            execution 1 `Secondary [ send 3 ];
            execution 2 `Secondary [ send 4 ] ];
      timed_out = false;
      verdict = Alarm.Ok_non_deterministic;
      suspects = [] };
    (* A lost primary: two agreeing secondaries meet the degraded quorum
       of 2, but what they agree on violates a policy, so the quorum
       does not vouch for the plan and the primary is blamed. *)
    { name = "lost primary, quorum violates policy";
      cfg = config ~policies:no_linksdb ~degraded_quorum:2 ();
      p =
        input ~secondaries:[ 1; 2 ]
          [ execution 1 `Secondary [ link_down ];
            execution 2 `Secondary [ link_down ] ];
      timed_out = true;
      verdict = Alarm.Faulty [ Alarm.Response_timeout ];
      suspects = [ 0 ] };
    { name = "lost primary, quorum within policy";
      cfg = config ~degraded_quorum:2 ();
      p =
        input ~secondaries:[ 1; 2 ]
          [ execution 1 `Secondary [ link_down ];
            execution 2 `Secondary [ link_down ] ];
      timed_out = true;
      verdict = Alarm.Ok_degraded;
      suspects = [] };
    (* Agreeing secondaries with different network views form no
       quorum under state-aware consensus, and do without it. *)
    { name = "different views, state-aware: no quorum";
      cfg = config ~degraded_quorum:2 ~state_aware:true ();
      p =
        input ~secondaries:[ 1; 2 ]
          [ execution 1 `Secondary [ send 2 ];
            execution ~snapshot:other_view 2 `Secondary [ send 2 ] ];
      timed_out = true;
      verdict = Alarm.Faulty [ Alarm.Response_timeout ];
      suspects = [ 0 ] };
    { name = "different views, state-blind: quorum of 2";
      cfg = config ~degraded_quorum:2 ~state_aware:false ();
      p =
        input ~secondaries:[ 1; 2 ]
          [ execution 1 `Secondary [ send 2 ];
            execution ~snapshot:other_view 2 `Secondary [ send 2 ] ];
      timed_out = true;
      verdict = Alarm.Ok_degraded;
      suspects = [] } ]

let test_cases () =
  List.iter
    (fun c ->
      let mirror = Hashtbl.create 1 in
      match Decide.verdict c.cfg ~mirror c.p ~timed_out:c.timed_out with
      | None -> Alcotest.failf "%s: not decided" c.name
      | Some d ->
          Alcotest.(check string)
            (c.name ^ ": verdict")
            (Alarm.verdict_name c.verdict)
            (Alarm.verdict_name d.Decide.verdict);
          Alcotest.(check (list int))
            (c.name ^ ": suspects") c.suspects
            (List.sort_uniq compare d.Decide.suspects))
    (cases ())

(* Without a primary execution nothing is decided before the timer. *)
let test_waits_for_primary () =
  let p = input ~secondaries:[ 1 ] [ execution 1 `Secondary [ send 2 ] ] in
  Alcotest.(check bool)
    "not yet" true
    (Decide.verdict (config ()) ~mirror:(Hashtbl.create 1) p ~timed_out:false
    = None)

let suite =
  [ ("verdict table", `Quick, test_cases);
    ("waits for the primary before the timer", `Quick, test_waits_for_primary) ]
