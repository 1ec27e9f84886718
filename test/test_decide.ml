(* JURY's decision with no engine, deployment or validator around it:
   [Decide] on hand-built and generated triggers, held to hand-derived
   answers and to [Jury_check.Spec]. *)

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
module Spec = Jury_check.Spec

let taint = Types.Taint.external_trigger ~primary:0 ~serial:1

(* A packet out of [port] on switch 1: nothing to observe anywhere. *)
let forward port =
  let po_actions = [ Of_action.Output port ] in
  Types.Network_send
    { dpid = Dpid.of_int 1;
      payload =
        Packet_out
          { po_buffer_id = None; po_in_port = 1; po_actions; po_frame = None } }

let link_down =
  Types.Cache_write
    { cache = Names.linksdb; op = Event.Update; key = "l"; value = "down" }

(* A FLOW_MOD on switch 1 for traffic to host [dst], output to [port],
   with or without a buffer id. *)
let rule ?(buffer_id = None) ?(dst = 1) port =
  Of_message.flow_mod ~priority:100 ~buffer_id
    (Of_match.l2_pair ~src:(Mac.of_host_index 0) ~dst:(Mac.of_host_index dst))
    [ Of_action.Output port ]

let flow_key (fm : Of_message.flow_mod) =
  Jury_controller.Values.Flow.key (Dpid.of_int 1) fm.fm_match
    ~priority:fm.priority

let flow_write ?(cache = Names.flowsdb) fm =
  Types.Cache_write
    { cache; op = Event.Create; key = flow_key fm;
      value = Jury_controller.Values.Flow.value fm }

let flow_send fm =
  Types.Network_send { dpid = Dpid.of_int 1; payload = Of_message.Flow_mod fm }

(* A FLOW_MOD on switch 1 that outputs to [port]. *)
let send port = flow_send (rule port)

(* A snapshot other than [Snapshot.pristine]. *)
let other_view =
  Snapshot.observe Snapshot.pristine
    { Event.cache = Names.hostdb; op = Event.Create; key = "h"; value = "v";
      origin = 3; seq = 1; taint = None }

let response ?(snapshot = Snapshot.pristine) ?(taint = taint) controller body =
  { Response.controller; taint; snapshot; sent_at = Time.zero; term = 0; body }

let execution ?snapshot ?taint controller role actions =
  response ?snapshot ?taint controller (Response.Execution { role; actions })

(* [fm]'s FLOWSDB install by controller 0, as its reporter saw it. *)
let flow_event ?taint reporter fm =
  response ?taint reporter
    (Response.Cache_update
       { Event.cache = Names.flowsdb; op = Event.Create; key = flow_key fm;
         value = Jury_controller.Values.Flow.value fm; origin = 0; seq = 1;
         taint = None })

let on_wire ?taint sender flow =
  response ?taint sender
    (Response.Network_write { dpid = Dpid.of_int 1; flow })

(* File [r] as the validator does: a FLOWSDB update goes through
   [mirror] first, and the rule the mirror parses is kept on its
   report. *)
let file ~mirror p (r : Response.t) =
  let rule =
    match r.body with
    | Response.Cache_update { cache = Names.Flowsdb; op; key; value; _ } -> (
        match op with
        | Event.Delete ->
            Hashtbl.remove mirror key;
            None
        | Event.Create | Event.Update -> Decide.mirror_write mirror key value)
    | _ -> None
  in
  Decide.record p ?rule r

(* Primary 0 and [secondaries], with [arrivals] filed in order through
   [mirror]. *)
let input ?(mirror = Hashtbl.create 1) ~secondaries arrivals =
  let p =
    { Decide.taint; primary = Some 0; term = 0; secondaries;
      executions = []; reports = []; writes = []; failures = [] }
  in
  List.iter (fun r -> assert (file ~mirror p r)) arrivals;
  p

let config ?policies ?degraded_quorum ?state_aware () =
  Jury.Jury_config.validator
    (Jury.Jury_config.make ?policies ?degraded_quorum ?state_aware ~k:2 ())

let no_linksdb =
  Jury_policy.Engine.create
    [ Jury_policy.Ast.rule ~name:"no-linksdb" ~cache:Names.linksdb () ]

let no_remote_flows =
  Jury_policy.Engine.create
    [ Jury_policy.Ast.rule ~name:"no-remote-flows" ~cache:Names.flowsdb
        ~destination:Jury_policy.Ast.Remote_only () ]

let ints l = String.concat "," (List.map string_of_int l)
let show verdict suspects =
  Printf.sprintf "%s [%s]" (Alarm.verdict_name verdict) (ints suspects)

let of_decide (d : Decide.decision) =
  show d.verdict (List.sort_uniq compare d.suspects)

let of_spec (d : Spec.decision) = show d.verdict d.suspects

(* One trigger of primary 0 and its verdict, worked out by hand: a check
   that [Decide] reaches it, detail included, and that [Spec] does. *)
let case ?(cfg = config ()) ?(mirror = Hashtbl.create 1) ?(timed_out = false)
    ?(suspects = []) ?(detail = "") name ~secondaries arrivals verdict () =
  let want = show verdict suspects in
  Alcotest.(check (option (pair string string)))
    (name ^ ": Decide") (Some (want, detail))
    (Option.map
       (fun d -> (of_decide d, d.Decide.detail))
       (Decide.verdict cfg ~mirror (input ~secondaries arrivals) ~timed_out));
  Alcotest.(check (option string))
    (name ^ ": Spec") (Some want)
    (Option.map of_spec
       (Spec.decide cfg ~mirror ~timed_out
          { taint; primary = Some 0; secondaries; arrivals }))

let lost = "no primary response before validation timeout"
let quorum_of_2 =
  "primary response lost; 2 equivalent-view replica response(s) agree"

let cases () =
  let a = rule 2 and stray = rule ~dst:3 5 in
  let installs = [ flow_write a; flow_send a ] in
  let link_downs =
    [ execution 1 `Secondary [ link_down ];
      execution 2 `Secondary [ link_down ] ]
  in
  let two_views =
    [ execution 1 `Secondary [ send 2 ];
      execution ~snapshot:other_view 2 `Secondary [ send 2 ] ]
  in
  [ (* The non-determinism rule needs 3 or more responses: a primary and
       one dissenting secondary are a tie, not all-distinct. *)
    case "k=1 split vote is unverifiable" ~secondaries:[ 1 ]
      [ execution 0 `Primary [ forward 2 ];
        execution 1 `Secondary [ forward 3 ] ]
      Alarm.Ok_unverifiable;
    case "three distinct responses are non-deterministic"
      ~secondaries:[ 1; 2 ]
      [ execution 0 `Primary [ forward 2 ];
        execution 1 `Secondary [ forward 3 ];
        execution 2 `Secondary [ forward 4 ] ]
      Alarm.Ok_non_deterministic;
    (* Three of four agree on the primary's plan: the fourth dissents. *)
    case "a secondary outvoted is the suspect" ~secondaries:[ 1; 2; 3 ]
      [ execution 0 `Primary [ forward 2 ];
        execution 1 `Secondary [ forward 2 ];
        execution 2 `Secondary [ forward 3 ];
        execution 3 `Secondary [ forward 2 ] ]
      (Alarm.Faulty [ Alarm.Consensus_mismatch ])
      ~suspects:[ 2 ] ~detail:"consensus dissent by [2]";
    (* A lost primary: two agreeing secondaries meet the degraded quorum
       of 2, but what they agree on violates a policy, so the quorum
       does not vouch for the plan and the primary is blamed. *)
    case "lost primary, quorum violates policy" ~secondaries:[ 1; 2 ]
      ~cfg:(config ~policies:no_linksdb ~degraded_quorum:2 ()) ~timed_out:true
      link_downs (Alarm.Faulty [ Alarm.Response_timeout ]) ~suspects:[ 0 ]
      ~detail:lost;
    case "lost primary, quorum within policy" ~secondaries:[ 1; 2 ]
      ~cfg:(config ~degraded_quorum:2 ()) ~timed_out:true
      link_downs Alarm.Ok_degraded ~detail:quorum_of_2;
    (* Agreeing secondaries with different network views form no
       quorum under state-aware consensus, and do without it. *)
    case "different views, state-aware: no quorum" ~secondaries:[ 1; 2 ]
      ~cfg:(config ~degraded_quorum:2 ~state_aware:true ()) ~timed_out:true
      two_views (Alarm.Faulty [ Alarm.Response_timeout ]) ~suspects:[ 0 ]
      ~detail:lost;
    case "different views, state-blind: quorum of 2" ~secondaries:[ 1; 2 ]
      ~cfg:(config ~degraded_quorum:2 ~state_aware:false ()) ~timed_out:true
      two_views Alarm.Ok_degraded ~detail:quorum_of_2;
    (* Two secondaries tie 1-1 for a lost primary: the plan taken first
       wins, whatever the hash order of the plans. Here it violates the
       policy, so the quorum of 1 does not vouch. *)
    case "lost primary, tied quorum: the plan taken first" ~secondaries:[ 1; 2; 3 ]
      ~cfg:
        (config ~policies:no_linksdb ~degraded_quorum:1 ~state_aware:true ())
      ~timed_out:true
      [ execution 2 `Secondary [ link_down ]; execution 1 `Secondary [] ]
      (Alarm.Faulty [ Alarm.Response_timeout ]) ~suspects:[ 0 ] ~detail:lost;
    (* In degraded mode the install's lost FLOW_MOD is an omission the
       plan accounts for, but the unplanned FLOW_MOD is a hard fault: no
       quorum excuses it. Hard faults are reported first. *)
    case "degraded mode: a hard fault outranks an omission"
      ~secondaries:[ 1; 2 ]
      ~cfg:(config ~degraded_quorum:2 ()) ~timed_out:true
      [ execution 0 `Primary installs; execution 1 `Secondary installs;
        execution 2 `Secondary installs; flow_event 0 a; on_wire 0 stray ]
      (Alarm.Faulty [ Alarm.Response_timeout; Alarm.Network_without_cache ])
      ~suspects:[ 0 ]
      ~detail:
        "FLOW_MOD {dl_src=02:00:00:00:00:00,dl_dst=02:00:00:00:00:03}\
         @of:0000000000000001 has no cache backing; no FLOW_MOD on wire for \
         cache entry {dl_src=02:00:00:00:00:00,dl_dst=02:00:00:00:00:01}\
         @of:0000000000000001";
    (* Controller 7 was never replicated to: its execution neither
       stands in for silent secondary 1 nor outvotes anyone. *)
    (fun () ->
      let arrivals =
        [ execution 0 `Primary [ forward 2 ];
          execution 2 `Secondary [ forward 2 ];
          execution 7 `Secondary [ forward 3 ] ]
      in
      Alcotest.(check bool)
        "a stray does not complete: Decide" false
        (Decide.complete (config ()) (input ~secondaries:[ 1; 2 ] arrivals));
      Alcotest.(check bool)
        "a stray does not complete: Spec" true
        (Spec.decide (config ()) ~mirror:(Hashtbl.create 1) ~timed_out:false
           { taint; primary = Some 0; secondaries = [ 1; 2 ]; arrivals }
        = None);
      case "a stray secondary does not vote" ~secondaries:[ 1; 2 ]
        ~timed_out:true arrivals Alarm.Ok_valid ());
    (* A FLOWSDB write named in lower case is still a FLOWSDB write: to a
       switch that node 1 masters, it is remote. *)
    case "lower-case flowsdb write to a remote switch" ~secondaries:[]
      ~cfg:
        { (config ~policies:no_remote_flows ()) with
          Decide.master_lookup = (fun _ -> Some 1) }
      [ execution 0 `Primary
          [ flow_write ~cache:(Names.of_string "flowsdb") a; flow_send a ];
        flow_event 0 a; on_wire 0 a ]
      (Alarm.Faulty [ Alarm.Policy_violation "no-remote-flows" ])
      ~suspects:[ 0 ]
      ~detail:
        "no-remote-flows[deny ctrl=* trig=* cache=FLOWSDB op=* dest=remote \
         entry=*,*]" ]

let test_cases () = List.iter (fun check -> check ()) (cases ())

(* Without a primary execution nothing is decided before the timer. *)
let test_waits_for_primary () =
  let p = input ~secondaries:[ 1 ] [ execution 1 `Secondary [ send 2 ] ] in
  Alcotest.(check bool)
    "not yet" true
    (Decide.verdict (config ()) ~mirror:(Hashtbl.create 1) p ~timed_out:false
    = None)

(* One FLOWSDB key through its life, filed as the validator files it:
   an update whose value is no rule (a corrupted cache value) leaves
   the rule before it backing a re-sent FLOW_MOD, an update to another
   rule moves the backing, and a delete drops it. *)
let test_mirror_semantics () =
  let mirror = Hashtbl.create 1 and a = rule 2 and b = rule 3 in
  let key = flow_key a in
  Alcotest.(check string) "one key" key (flow_key b);
  let update value = ignore (Decide.mirror_write mirror key value) in
  let resend name fm backed =
    let arrivals = [ execution 0 `Primary [ flow_send fm ]; on_wire 0 fm ] in
    if backed then case ~mirror name ~secondaries:[] arrivals Alarm.Ok_valid ()
    else
      case ~mirror name ~secondaries:[] arrivals
        (Alarm.Faulty [ Alarm.Network_without_cache ])
        ~suspects:[ 0 ]
        ~detail:
          (Format.asprintf "FLOW_MOD %a@%a has no cache backing" Of_match.pp
             fm.fm_match Dpid.pp (Dpid.of_int 1))
        ()
  in
  resend "nothing mirrored" a false;
  update (Jury_controller.Values.Flow.value a);
  resend "a mirrored" a true;
  update "#byz";
  resend "a value that is no rule leaves a" a true;
  update (Jury_controller.Values.Flow.value b);
  resend "an update moves the backing to b" b true;
  resend "an update takes it from a" a false;
  Hashtbl.remove mirror key;
  resend "a delete drops it" b false

(* --- Allocation budgets --- *)

(* Minor words per call over 1000 warmed calls. A call that allocates
   nothing reads 0.002: the counter's own boxed float, spread over the
   calls. *)
let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. 1000.

let within what budget words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words <= %g" what words budget)
    true (words <= budget)

(* A FLOWSDB install on switch 1. Each replica plans it as a fresh
   list, as each builds its own. *)
let install_rule = rule 2
let install_actions () = [ flow_write install_rule; flow_send install_rule ]
let ack_peers = [ 1; 2 ]

(* Every response a k-replica install trigger gets: the primary's and
   each secondary's execution, the primary's FLOWSDB event and its
   peers' acks, and the FLOW_MOD on the wire. *)
let install_responses ~taint ~k =
  List.init (k + 1) (fun i ->
      execution ~taint i
        (if i = 0 then `Primary else `Secondary)
        (install_actions ()))
  @ List.map (fun c -> flow_event ~taint c install_rule) (0 :: ack_peers)
  @ [ on_wire ~taint 0 install_rule ]

let install_config () =
  { (config ()) with Decide.ack_peers_of = (fun _ -> ack_peers) }

let filed ?mirror ~k () =
  input ?mirror
    ~secondaries:(List.init k (fun i -> i + 1))
    (install_responses ~taint ~k)

(* Budgets are 1.5x the words measured on OCaml 5.1.1, so that they hold
   on the OCaml versions CI builds with. The completeness test and the
   straggler list of a filed trigger allocate nothing; building the
   secondary executions as a list would cost 6 words per secondary.
   Deciding an agreeing k=6 install reads 16 words: the decision and
   its option, the agreement count, and the sanity check's one-entry
   list of cached installs (the install's report hands out the switch
   and rule the mirror parsed when it was filed). A one-shard batch
   registers, files, times, decides and logs one k=6 trigger in 227
   words, 58 of them the parse of its install's rule. Every trigger
   here installs the same rule, so the mirror's value never changes
   after the first: a mirror that kept each parse served all but the
   first from it, in 162 words a trigger. *)
let test_allocation () =
  let cfg = install_config () in
  List.iter
    (fun k ->
      let p = filed ~k () in
      Alcotest.(check bool) "complete" true (Decide.complete cfg p);
      within
        (Printf.sprintf "complete, k=%d" k)
        0.5
        (words_per_call (fun () -> Decide.complete cfg p));
      within
        (Printf.sprintf "stragglers, k=%d" k)
        0.5
        (words_per_call (fun () -> Decide.stragglers p)))
    [ 2; 6 ];
  (* The validator's mirror, which parses the install's rule when its
     event arrives. *)
  let mirror = Hashtbl.create 1 in
  let p = filed ~mirror ~k:6 () in
  within "verdict, agreeing k=6" 24.
    (words_per_call (fun () ->
         Decide.verdict cfg ~mirror p ~timed_out:false));
  (* One trigger through a one-shard validator: register it, deliver its
     responses as one batch, let it decide. Warm-up triggers grow the
     engine's queue and the validator's tables first, and the engine is
     drained before measuring, so the figure holds no growth. *)
  let engine = Engine.create () in
  let v = Jury.Validator.create engine cfg in
  let serial = ref 0 in
  let batches =
    Array.init 3000 (fun s ->
        install_responses ~k:6
          ~taint:(Types.Taint.external_trigger ~primary:0 ~serial:s))
  in
  let trigger () =
    let s = !serial in
    incr serial;
    Jury.Validator.register_external v
      ~taint:(Types.Taint.external_trigger ~primary:0 ~serial:s)
      ~at:Time.zero ~primary:0
      ~secondaries:[ 1; 2; 3; 4; 5; 6 ];
    Jury.Validator.deliver_batch v batches.(s)
  in
  for _ = 1 to 1999 do
    trigger ()
  done;
  Engine.run engine;
  let decided_before = Jury.Validator.decided_count v in
  within "one k=6 trigger through deliver_batch" 243. (words_per_call trigger);
  Alcotest.(check int)
    "each trigger decided" 1001
    (Jury.Validator.decided_count v - decided_before)

(* The budget is 1.5x the figure measured on OCaml 5.1.1. A mirror of
   2,000 installs retains 32.5 words per key: its key and value strings
   and the table's bucket and slot. Keeping each rule parsed beside its
   value, as the mirror once did, cost 77.5. *)
let test_mirror_retention () =
  let mirror = Hashtbl.create 1 and n = 2000 in
  for i = 1 to n do
    let fm = rule ~dst:i 2 in
    ignore
      (Decide.mirror_write mirror (flow_key fm)
         (Jury_controller.Values.Flow.value fm))
  done;
  Alcotest.(check int) "keys" n (Hashtbl.length mirror);
  let words =
    float_of_int (Obj.reachable_words (Obj.repr mirror)) /. float_of_int n
  in
  within "retained per mirrored key" 48.75 words

(* --- Differential test against the spec --- *)

(* One generated trigger: who should answer, the responses in arrival
   order (duplicates included), and when the primary is re-attributed. *)
type scenario = {
  d_cfg : Decide.config;
  d_mirror : Decide.mirror;
  d_secondaries : int list;
  d_arrivals : Response.t list;
  d_reattribute : (int * int) option;
      (* after this many arrivals, this controller becomes primary *)
  d_timed_out : bool;
}

let pick st l = List.nth l (Random.State.int st (List.length l))

let shuffle st l =
  List.map (fun x -> (Random.State.bits st, x)) l
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Plans that agree, differ, differ only in a buffer id or in action
   order (which consensus forgives), install one rule or two, or
   violate a policy. *)
let plans =
  let a = rule 2 and b = rule 3 and c = rule ~dst:2 2
  and buffered = rule ~buffer_id:(Some 7) 2 in
  [ []; [ send 2 ]; [ send 3 ]; [ flow_send buffered ]; [ link_down ];
    [ flow_write a; flow_send a ]; [ flow_send a; flow_write a ];
    [ flow_write b; flow_send b ]; [ flow_write a; flow_send b ];
    [ flow_write a; flow_send a; flow_write c; flow_send c ];
    [ flow_write c; flow_send c; flow_write a ] ]

let gen_scenario st =
  let k = Random.State.int st 7 in
  let secondaries = List.init k (fun i -> i + 1) in
  let snapshot () =
    if Random.State.int st 5 = 0 then other_view else Snapshot.pristine
  in
  let response controller body =
    { Response.controller; taint; snapshot = snapshot (); sent_at = Time.zero;
      term = 0; body }
  in
  let plan = pick st plans in
  (* Most replicas take the primary's plan, rebuilt as a fresh list. *)
  let replica_plan () =
    if Random.State.int st 4 = 0 then pick st plans else List.map Fun.id plan
  in
  let executions =
    (if Random.State.int st 6 = 0 then []
     else
       [ response 0 (Response.Execution { role = `Primary; actions = plan }) ])
    @ List.filter_map
        (fun s ->
          if Random.State.int st 5 = 0 then None
          else
            Some
              (response s
                 (Response.Execution
                    { role = `Secondary; actions = replica_plan () })))
        secondaries
    @
    if Random.State.int st 8 = 0 then
      [ response 7
          (Response.Execution
             { role = `Secondary; actions = replica_plan () }) ]
    else []
  in
  let reattribute =
    if Random.State.int st 6 = 0 then Some (1 + Random.State.int st 6) else None
  in
  let reattributed =
    match reattribute with
    | Some id when Random.State.bool st ->
        [ response id (Response.Execution { role = `Primary; actions = plan }) ]
    | _ -> []
  in
  (* The cache events the plan externalises, each reported by its
     origin and acked by some of its peers: sometimes lost, sometimes
     with another rule as its value, from another origin, or written
     twice under two sequence numbers. *)
  let reports =
    List.concat_map
      (fun (a : Types.action) ->
        match a with
        | Types.Cache_write { cache; op; key; value } ->
            let origin = if Random.State.int st 6 = 0 then 1 else 0 in
            let event seq =
              let value =
                if Random.State.int st 6 = 0 then
                  Jury_controller.Values.Flow.value (rule 4)
                else value
              in
              { Event.cache; op; key; value; origin; seq; taint = None }
            in
            let events =
              match Random.State.int st 6 with
              | 0 -> []
              | 1 -> [ event 1; event 2 ]
              | _ -> [ event (1 + Random.State.int st 2) ]
            in
            List.concat_map
              (fun event ->
                List.filter_map
                  (fun c ->
                    if Random.State.int st 4 = 0 then None
                    else Some (response c (Response.Cache_update event)))
                  [ origin; 1; 2; 3 ])
              events
        | Types.Network_send _ -> [])
      plan
  in
  (* The plan's FLOW_MODs on the wire: sometimes lost, sent by another
     controller or carrying another rule; sometimes a stray rule. *)
  let writes =
    List.concat_map
      (fun (a : Types.action) ->
        match a with
        | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } -> (
            match Random.State.int st 6 with
            | 0 -> []
            | 1 ->
                [ response 0 (Response.Network_write { dpid; flow = rule 4 }) ]
            | n ->
                [ response
                    (if n = 2 then 2 else 0)
                    (Response.Network_write { dpid; flow = fm }) ])
        | Types.Network_send _ | Types.Cache_write _ -> [])
      plan
    @
    match Random.State.int st 8 with
    | 0 ->
        [ response 0
            (Response.Network_write { dpid = Dpid.of_int 1; flow = rule 5 }) ]
    | 1 ->
        [ response 0
            (Response.Network_write
               { dpid = Dpid.of_int 1; flow = rule ~dst:3 5 }) ]
    | _ -> []
  in
  let failures =
    if Random.State.int st 12 = 0 then
      [ response 0
          (Response.Write_failure { action = link_down; reason = "lock" }) ]
    else []
  in
  let arrivals =
    shuffle st (executions @ reattributed @ reports @ writes @ failures)
  in
  (* Channel duplicates: a few responses arrive again, later. *)
  let arrivals =
    arrivals @ List.filter (fun _ -> Random.State.int st 6 = 0) arrivals
  in
  (* The mirror sometimes already holds a rule: a reinstall backs its
     FLOW_MOD. *)
  let mirror = Hashtbl.create 1 in
  (match Random.State.int st 3 with
  | 0 -> ()
  | n ->
      let fm = if n = 1 then rule 2 else rule ~dst:3 5 in
      ignore
        (Decide.mirror_write mirror (flow_key fm)
           (Jury_controller.Values.Flow.value fm)));
  let policies =
    pick st
      [ None; Some no_linksdb;
        Some
          (Jury_policy.Engine.create
             [ Jury_policy.Ast.rule ~name:"no-remote-flows" ~cache:Names.flowsdb
                 ~destination:Jury_policy.Ast.Remote_only () ]) ]
  in
  let cfg =
    { (config ?policies
         ?degraded_quorum:(pick st [ None; Some 1; Some 2 ])
         ~state_aware:(Random.State.bool st) ())
      with
      Decide.ack_peers_of = (fun _ -> [ 1; 2; 3 ]);
      nondet_rule = Random.State.int st 4 <> 0 }
  in
  { d_cfg = cfg;
    d_mirror = mirror;
    d_secondaries = secondaries;
    d_arrivals = arrivals;
    d_reattribute =
      Option.map
        (fun id -> (Random.State.int st (1 + List.length arrivals), id))
        reattribute;
    d_timed_out = Random.State.bool st }

let print_scenario sc =
  Format.asprintf "k=%d timed_out=%b reattribute=%s@.%a"
    (List.length sc.d_secondaries) sc.d_timed_out
    (match sc.d_reattribute with
    | Some (at, id) -> Printf.sprintf "%d after %d" id at
    | None -> "-")
    (Format.pp_print_list Response.pp) sc.d_arrivals

(* [Decide] filing the arrivals one by one through the scenario's
   mirror, as the validator does, against [Spec] reading all that
   arrived so far. *)
let same_as_spec sc =
  let p = input ~secondaries:sc.d_secondaries [] in
  let arrived = ref [] in
  let trigger () =
    { Spec.taint; primary = p.primary; secondaries = sc.d_secondaries;
      arrivals = List.rev !arrived }
  in
  let spec timed_out =
    Spec.decide sc.d_cfg ~mirror:sc.d_mirror (trigger ()) ~timed_out
    |> Option.fold ~none:"waiting" ~some:of_spec
  in
  (* What the validator decides: nothing before the timer until the
     trigger is complete. *)
  let decide timed_out =
    if timed_out || Decide.complete sc.d_cfg p then
      Decide.verdict sc.d_cfg ~mirror:sc.d_mirror p ~timed_out
      |> Option.fold ~none:"waiting" ~some:of_decide
    else "waiting"
  in
  let check what pp d s =
    if d <> s then
      QCheck.Test.fail_reportf "%s differs: Decide %s, Spec %s" what (pp d)
        (pp s)
  in
  List.iteri
    (fun i r ->
      (match sc.d_reattribute with
      | Some (at, id) when at = i -> p.primary <- Some id
      | _ -> ());
      let fresh = not (Spec.duplicate ~earlier:(List.rev !arrived) r) in
      check "record" string_of_bool (file ~mirror:sc.d_mirror p r) fresh;
      arrived := r :: !arrived;
      check "complete" string_of_bool (Decide.complete sc.d_cfg p)
        (spec false <> "waiting"))
    sc.d_arrivals;
  check "stragglers" ints (Decide.stragglers p) (Spec.stragglers (trigger ()));
  check "verdict before the timer" Fun.id (decide false) (spec false);
  check "verdict" Fun.id (decide sc.d_timed_out) (spec sc.d_timed_out);
  true

let differential =
  QCheck.Test.make ~name:"decide = Spec, arrival by arrival" ~count:3000
    (QCheck.make ~print:print_scenario gen_scenario)
    same_as_spec

let suite =
  [ ("verdict table", `Quick, test_cases);
    ("waits for the primary before the timer", `Quick, test_waits_for_primary);
    ("decision allocation budget", `Quick, test_allocation);
    ("mirror semantics of one key", `Quick, test_mirror_semantics);
    ("mirror retention budget", `Quick, test_mirror_retention);
    QCheck_alcotest.to_alcotest differential ]
