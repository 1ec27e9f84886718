(* The decision rule as it stood before the validator's hot path was
   made allocation-free, kept verbatim: it files and judges with
   list-building folds and capturing closures. The differential test in
   [Test_decide] checks that [Jury.Decide] files, completes and judges
   every generated trigger exactly as this reference does. *)

module Types = Jury_controller.Types
module Values = Jury_controller.Values
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Of_message = Jury_openflow.Of_message
module Of_match = Jury_openflow.Of_match
module Of_action = Jury_openflow.Of_action
module Dpid = Jury_openflow.Of_types.Dpid
module Response = Jury.Response
module Snapshot = Jury.Snapshot
module Alarm = Jury.Alarm
open Jury.Decide

(* --- Filing responses --- *)

(* The one place the duplicate and counting rules live. *)
let record p (r : Response.t) =
  let from = r.controller in
  match r.body with
  | Response.Execution { role; _ } ->
      let same (q : Response.t) =
        q.controller = from
        && match q.body with Response.Execution e -> e.role = role | _ -> false
      in
      let fresh = not (List.exists same p.executions) in
      if fresh then p.executions <- r :: p.executions;
      fresh
  | Response.Cache_update event ->
      let same (c : report) =
        c.event.Event.origin = event.Event.origin
        && c.event.Event.seq = event.Event.seq
      in
      let mine (c : report) = c.reporter = from in
      let fresh =
        not (List.exists (fun c -> mine c && c.event = event) p.reports)
      in
      if fresh then
        p.reports <-
          { reporter = from;
            event;
            first = not (List.exists same p.reports);
            ack =
              from <> event.Event.origin
              && not (List.exists (fun c -> mine c && same c) p.reports) }
          :: p.reports;
      fresh
  | Response.Network_write { dpid; flow } ->
      let same (w : write) =
        Dpid.equal w.dpid dpid
        && (w.flow == flow || w.flow = flow
           || String.equal (Values.Flow.value w.flow) (Values.Flow.value flow))
      in
      let fresh =
        not
          (List.exists
             (fun w -> w.sender = from && w.dpid = dpid && w.flow = flow)
             p.writes)
      in
      if fresh then
        p.writes <-
          { sender = from; dpid; flow; first = not (List.exists same p.writes) }
          :: p.writes;
      fresh
  | Response.Write_failure { action; reason } ->
      let failure = (from, action, reason) in
      let fresh = not (List.mem failure p.failures) in
      if fresh then p.failures <- failure :: p.failures;
      fresh

(* --- Reading the filed responses --- *)

(* The current primary's execution report (one per controller and
   role: [record] drops the rest). *)
let primary_execution p =
  match p.primary with
  | None -> None
  | Some primary ->
      List.find_map
        (fun (r : Response.t) ->
          match r.body with
          | Response.Execution { role = `Primary; actions }
            when r.controller = primary ->
              Some (r, actions)
          | _ -> None)
        p.executions

(* Secondary execution reports, in arrival order. *)
let secondary_executions p =
  List.fold_left
    (fun acc (r : Response.t) ->
      match r.body with
      | Response.Execution { role = `Secondary; actions } -> (r, actions) :: acc
      | _ -> acc)
    [] p.executions

let stragglers p =
  let answered = secondary_executions p in
  List.filter
    (fun s ->
      not
        (List.exists (fun ((r : Response.t), _) -> r.controller = s) answered))
    p.secondaries

(* The first copies of a trigger's FLOW_MODs that [keep] selects, in
   arrival order. *)
let first_writes keep p =
  List.fold_left
    (fun acc (w : write) -> if w.first && keep w then w :: acc else acc)
    [] p.writes

(* The earliest first report of a write to ([cache], [key]) made by
   [origin]. *)
let first_report p ~cache ~key ~origin =
  let cache = Names.normalize cache in
  List.fold_left
    (fun found (c : report) ->
      let e = c.event in
      if
        c.first && e.Event.cache = cache && e.Event.key = key
        && e.Event.origin = origin
      then Some e
      else found)
    None p.reports

let flow_mod_sends actions =
  List.filter_map
    (fun (a : Types.action) ->
      match a with
      | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ->
          Some (dpid, fm)
      | _ -> None)
    actions

let cache_writes actions =
  List.filter_map
    (fun (a : Types.action) ->
      match a with
      | Types.Cache_write { cache; key; value; _ } -> Some (cache, key, value)
      | Types.Network_send _ -> None)
    actions

(* Whether [w] writes the rule of ([dpid], [fm]): same switch, match
   and priority. *)
let same_rule (w : write) dpid (fm : Of_message.flow_mod) =
  Dpid.equal w.dpid dpid
  && Of_match.equal w.flow.fm_match fm.fm_match
  && w.flow.priority = fm.priority

(* --- Completeness: can we decide before the timer? --- *)

(* A cache write counts once its earliest first report has arrived and
   every peer of the origin has acked that event. *)
let complete cfg p =
  match primary_execution p with
  | None -> false
  | Some (prim_r, actions) ->
      let primary = prim_r.Response.controller in
      let executions =
        List.fold_left
          (fun n (r : Response.t) ->
            match r.body with
            | Response.Execution { role = `Secondary; _ } -> n + 1
            | _ -> n)
          0 p.executions
      in
      executions >= List.length p.secondaries
      && (let peers = List.length (cfg.ack_peers_of primary) in
          List.for_all
            (fun (a : Types.action) ->
              match a with
              | Types.Cache_write { cache; key; _ } -> (
                  match first_report p ~cache ~key ~origin:primary with
                  | None -> false
                  | Some ev ->
                      List.fold_left
                        (fun n (c : report) ->
                          if
                            c.ack && c.event.Event.origin = ev.Event.origin
                            && c.event.Event.seq = ev.Event.seq
                          then n + 1
                          else n)
                        0 p.reports
                      >= peers)
              | Types.Network_send
                  { dpid; payload = Of_message.Flow_mod fm } ->
                  List.exists
                    (fun (w : write) ->
                      w.first && same_rule w dpid fm
                      && w.flow.command = fm.command)
                    p.writes
              | Types.Network_send _ -> true)
            actions)

(* --- Findings: what a check blames, and on whom --- *)

(* [excusable] findings are omissions: observations the primary's plan
   promises but the validator never saw. A reduced quorum that vouches
   for the plan excuses them; everything else is a hard fault. *)
type finding = {
  fault : Alarm.fault;
  blamed : int list;
  note : string;
  excusable : bool;
}

let hard fault blamed note = { fault; blamed; note; excusable = false }

let omission origin note =
  { fault = Alarm.Response_timeout; blamed = [ origin ]; note;
    excusable = true }

(* --- Consensus --- *)

let normalize_flow (fm : Of_message.flow_mod) =
  { fm with Of_message.fm_buffer_id = None }

let action_consensus_fingerprint (a : Types.action) =
  (* Buffer ids differ between primary and shadow executions (only the
     primary's switch allocated one), so they are erased before
     comparison; likewise FLOWSDB values re-encode with the buffer
     cleared. *)
  match a with
  | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ->
      Types.action_fingerprint
        (Types.Network_send
           { dpid; payload = Of_message.Flow_mod (normalize_flow fm) })
  | Types.Network_send { dpid; payload = Of_message.Packet_out po } ->
      Types.action_fingerprint
        (Types.Network_send
           { dpid;
             payload = Of_message.Packet_out { po with po_buffer_id = None } })
  | Types.Cache_write { cache; op; key; value } when cache = Names.flowsdb -> (
      match Values.Flow.parse value with
      | Some fm ->
          Types.action_fingerprint
            (Types.Cache_write
               { cache; op; key;
                 value = Values.Flow.value (normalize_flow fm) })
      | None -> Types.action_fingerprint a)
  | _ -> Types.action_fingerprint a

let response_fingerprint actions =
  actions
  |> List.map action_consensus_fingerprint
  |> List.sort String.compare
  |> String.concat "\n"

(* Whether two executions took the same actions. Actions hold no
   closures or floats, so [=] is exact, and equal lists have equal
   fingerprints: agreement needs no fingerprint. Only a difference does,
   since erasing buffer ids, re-encoding FLOWSDB values and ignoring
   action order can make different lists agree. *)
let same_actions a b = a == b || a = b

(* [response_fingerprint] for one decision, computed once per distinct
   action list. *)
let fingerprinter () =
  let seen = ref [] in
  fun actions ->
    match List.assq_opt actions !seen with
    | Some fp -> fp
    | None -> (
        match List.assoc_opt actions !seen with
        | Some fp -> fp
        | None ->
            let fp = response_fingerprint actions in
            seen := (actions, fp) :: !seen;
            fp)

let majority_fingerprint fps =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun fp ->
      match Hashtbl.find_opt tbl fp with
      | Some r -> incr r
      | None -> Hashtbl.add tbl fp (ref 1))
    fps;
  Hashtbl.fold
    (fun fp r best ->
      match best with
      | Some (_, n) when n >= !r -> best
      | _ -> Some (fp, !r))
    tbl None

type consensus =
  | Agrees of int  (* agreeing responses, primary included *)
  | Disagrees of int list  (* dissenting controllers *)
  | Non_deterministic
  | Unverifiable

let consensus cfg p (prim_r : Response.t) prim_actions =
  let secondaries = secondary_executions p in
  if secondaries = [] then
    if p.secondaries = [] then Agrees 1 (* nothing was replicated *)
    else Unverifiable
  else begin
    let comparable =
      if cfg.state_aware then
        List.filter
          (fun ((r : Response.t), _) ->
            Snapshot.equal r.snapshot prim_r.Response.snapshot)
          secondaries
      else secondaries
    in
    match comparable with
    | [] -> Unverifiable
    | _
      when List.for_all
             (fun (_, actions) -> same_actions prim_actions actions)
             comparable ->
        Agrees (1 + List.length comparable)
    | _ -> (
        let fingerprint = fingerprinter () in
        let prim_fp = fingerprint prim_actions in
        let fps =
          List.map
            (fun ((r : Response.t), actions) ->
              (r.controller, fingerprint actions))
            comparable
        in
        let all = prim_fp :: List.map snd fps in
        let distinct = List.sort_uniq String.compare all in
        if
          cfg.nondet_rule
          && List.length all >= 3
          && List.length distinct = List.length all
        then Non_deterministic
        else
          match majority_fingerprint all with
          | None -> Unverifiable
          | Some (winner, n) ->
              if 2 * n <= List.length all then Unverifiable
              else if String.equal winner prim_fp then begin
                (* Primary agrees; flag dissenting secondaries. *)
                let dissenters =
                  List.filter_map
                    (fun (controller, fp) ->
                      if String.equal fp winner then None else Some controller)
                    fps
                in
                if dissenters = [] then Agrees (1 + List.length comparable)
                else Disagrees dissenters
              end
              else Disagrees (Option.to_list p.primary))
  end

(* Best agreeing fingerprint among the secondary executions alone, for
   deciding a trigger whose primary response was lost in transit. Under
   state-aware consensus only replicas sharing a network view may form
   the quorum (§IV-C A still applies, just without the primary). *)
let secondary_quorum cfg p =
  match secondary_executions p with
  | [] -> None
  | secs ->
      let groups =
        if cfg.state_aware then
          List.fold_left
            (fun acc ((r : Response.t), actions) ->
              let rec place = function
                | [] -> [ (r.Response.snapshot, [ (r, actions) ]) ]
                | (snap, members) :: rest ->
                    if Snapshot.equal snap r.Response.snapshot then
                      (snap, (r, actions) :: members) :: rest
                    else (snap, members) :: place rest
              in
              place acc)
            [] secs
          |> List.map snd
        else [ secs ]
      in
      let fingerprint = fingerprinter () in
      let group_majority = function
        | (_, first) :: rest
          when List.for_all (fun (_, actions) -> same_actions first actions) rest
          ->
            Some (first, 1 + List.length rest)
        | members -> (
            let fps =
              List.map (fun (_, actions) -> (fingerprint actions, actions)) members
            in
            match majority_fingerprint (List.map fst fps) with
            | None -> None
            | Some (fp, n) -> Some (List.assoc fp fps, n))
      in
      List.fold_left
        (fun best members ->
          match (best, group_majority members) with
          | _, None -> best
          | Some (_, bn), Some (_, n) when bn >= n -> best
          | _, found -> found)
        None groups

(* --- Sanity check: cache vs network consistency for flow rules --- *)

let flows_equal (a : Of_message.flow_mod) (b : Of_message.flow_mod) =
  let a = normalize_flow a and b = normalize_flow b in
  Of_match.equal a.fm_match b.fm_match
  && a.priority = b.priority
  && Of_action.equal_list a.actions b.actions
  && a.command = b.command

(* Whether the mirror holds this wire rule: a FLOW_MOD re-sent for a
   rule the store already holds (e.g. a reinstall after a switch-side
   timeout race) is backed by it. *)
let mirrored mirror dpid (fm : Of_message.flow_mod) =
  let key = Values.Flow.key dpid fm.fm_match ~priority:fm.priority in
  match Hashtbl.find_opt mirror key with
  | Some (_, cfm) -> flows_equal cfm fm
  | None -> false

(* Whether [rules] holds the rule ([dpid], [fm]). *)
let listed rules dpid fm =
  List.exists (fun (d, rule) -> Dpid.equal d dpid && flows_equal rule fm) rules

(* When [plan] is given (degraded-quorum mode, after a timeout on a
   lossy channel) an inconsistency that the primary's own execution plan
   accounts for is an omission, not a fault: the observation was lost in
   transit, the action was not invented. The hard faults come newest
   first, then the omissions oldest first: the order their details are
   joined in. *)
let sanity ~mirror ?plan p ~origin =
  (* The switch and rule of a FLOWSDB entry. The mirror parsed the rule
     when the entry arrived, unless the key has changed since. *)
  let flow key value =
    match Values.Flow.dpid_of_key key with
    | None -> None
    | Some dpid -> (
        let fm =
          match Hashtbl.find_opt mirror key with
          | Some (v, fm) when v == value || String.equal v value -> Some fm
          | _ -> Values.Flow.parse value
        in
        Option.map (fun fm -> (dpid, fm)) fm)
  in
  (* The origin's FLOWSDB installs, at their first report, in arrival
     order. *)
  let cache_flows =
    List.fold_left
      (fun acc (c : report) ->
        let ev = c.event in
        if
          c.first
          && ev.Event.cache = Names.flowsdb
          && ev.Event.origin = origin
          && (ev.Event.op = Event.Create || ev.Event.op = Event.Update)
        then
          match flow ev.Event.key ev.Event.value with
          | Some entry -> entry :: acc
          | None -> acc
        else acc)
      [] p.reports
  in
  let nets =
    first_writes
      (fun w ->
        w.flow.command = Of_message.Add || w.flow.command = Of_message.Modify
        || w.flow.command = Of_message.Modify_strict)
      p
  in
  let plan = Option.value plan ~default:[] in
  let planned_sends = flow_mod_sends plan in
  let planned_cache_flows =
    List.filter_map
      (fun (cache, key, value) ->
        if Names.normalize cache = Names.flowsdb then flow key value else None)
      (cache_writes plan)
  in
  let faults = ref [] in
  let omissions = ref [] in
  let found ~planned f note =
    if planned then omissions := omission origin note :: !omissions
    else faults := hard f [ origin ] note :: !faults
  in
  List.iter
    (fun (dpid, cfm) ->
      match List.filter (fun w -> same_rule w dpid cfm) nets with
      | [] ->
          found ~planned:(listed planned_sends dpid cfm)
            Alarm.Cache_without_network
            (Format.asprintf "no FLOW_MOD on wire for cache entry %a@%a"
               Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid)
      | writes ->
          if
            not
              (List.exists (fun (w : write) -> flows_equal w.flow cfm) writes)
          then
            found ~planned:false Alarm.Cache_network_mismatch
              (Format.asprintf "cache and wire disagree for %a@%a"
                 Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid))
    cache_flows;
  List.iter
    (fun ({ dpid; flow = nfm; _ } as w : write) ->
      let in_trigger =
        List.exists (fun (d, cfm) -> same_rule w d cfm) cache_flows
      in
      if not (in_trigger || mirrored mirror dpid nfm) then
        (* Planned: the primary's plan includes the backing cache write;
           only its externalised event was lost. *)
        found ~planned:(listed planned_cache_flows dpid nfm)
          Alarm.Network_without_cache
          (Format.asprintf "FLOW_MOD %a@%a has no cache backing" Of_match.pp
             nfm.fm_match Dpid.pp dpid))
    nets;
  !faults @ List.rev !omissions

(* --- Policy check --- *)

let policy cfg ~origin ~external_ actions =
  (* With no rules installed no query can match; skip building the
     query records entirely. Besides being a hot-path win, this keeps
     the policy-free validator from consulting [master_lookup] — which
     reads live cluster mastership — so staged shard replicas never
     touch main-domain state. *)
  if Jury_policy.Engine.rule_count cfg.policies = 0 then []
  else
    let queries =
      List.filter_map
        (fun (a : Types.action) ->
          match a with
          | Types.Cache_write { cache; op; key; value } ->
              let destination =
                if cache = Names.normalize Names.flowsdb then
                  match Values.Flow.dpid_of_key key with
                  | Some dpid ->
                      if cfg.master_lookup dpid = Some origin then `Local
                      else `Remote
                  | None -> `Local
                else `Local
              in
              Some
                { Jury_policy.Ast.q_controller = origin;
                  q_trigger = (if external_ then `External else `Internal);
                  q_cache = Names.normalize cache;
                  q_op = op;
                  q_key = key;
                  q_value = value;
                  q_destination = destination }
          | Types.Network_send _ -> None)
        actions
    in
    (* Per-response hot path: consult the compiled decision structure
       (memoised per engine generation — compiled once at Jury_config
       time), not the interpreter's rule-list scan. *)
    Jury_policy.Compiled.check_all
      (Jury_policy.Engine.compiled cfg.policies)
      queries
    |> List.map (fun (r : Jury_policy.Ast.rule) ->
           hard (Alarm.Policy_violation r.Jury_policy.Ast.name) [ origin ]
             (Format.asprintf "%a" Jury_policy.Ast.pp_rule r))

(* --- The verdict --- *)

(* No execution record at all. If the trigger consists of intercepted
   FLOW_MODs with no cache backing, the sender bypassed its cache — a
   misbehaving controller (§II-A.3). Otherwise it is a plain response
   omission — unless enough equivalent-view replicated executions agree,
   in which case the lossy channel ate the primary's report and the
   trigger is decided with a reduced quorum. *)
let lost_primary cfg ~mirror p ~external_ =
  match first_writes (fun w -> not (mirrored mirror w.dpid w.flow)) p with
  | _ :: _ as stray ->
      { verdict = Alarm.Faulty [ Alarm.Network_without_cache ];
        suspects = List.map (fun (w : write) -> w.sender) stray;
        detail = "FLOW_MOD on the wire with no cache backing and no response" }
  | [] -> (
      let quorum =
        match cfg.degraded_quorum with
        | Some q when external_ && p.failures = [] -> (
            match secondary_quorum cfg p with
            | Some (actions, n)
              when n >= q
                   && policy cfg
                        ~origin:(Option.value p.primary ~default:(-1))
                        ~external_ actions
                      = [] ->
                Some n
            | _ -> None)
        | _ -> None
      in
      match quorum with
      | Some n ->
          { verdict = Alarm.Ok_degraded;
            suspects = [];
            detail =
              Printf.sprintf
                "primary response lost; %d equivalent-view replica \
                 response(s) agree"
                n }
      | None ->
          { verdict = Alarm.Faulty [ Alarm.Response_timeout ];
            suspects = Option.to_list p.primary;
            detail = "no primary response before validation timeout" })

let judge cfg ~mirror p ~timed_out ~external_ (prim_r : Response.t) actions =
  let origin = prim_r.controller in
  (* Write failures are response omissions in the making: the
     controller planned a cache write the store refused. *)
  let failed =
    List.rev_map
      (fun (ctrl, _, reason) ->
        hard Alarm.Response_timeout [ ctrl ] ("cache write failed: " ^ reason))
      p.failures
  in
  (* Timed out with missing externalisation: the plan says a write
     should exist; did its cache event arrive? *)
  let unobserved =
    if timed_out && p.failures = [] then
      List.filter_map
        (fun (cache, key, _) ->
          if Option.is_some (first_report p ~cache ~key ~origin) then None
          else
            Some
              (omission origin
                 (Printf.sprintf "cache update %s/%s never observed" cache
                    key)))
        (cache_writes actions)
    else []
  in
  let consensus =
    if external_ then consensus cfg p prim_r actions else Agrees 0
  in
  let dissent =
    match consensus with
    | Disagrees dissenters ->
        [ hard Alarm.Consensus_mismatch dissenters
            (Printf.sprintf "consensus dissent by [%s]"
               (String.concat "," (List.map string_of_int dissenters))) ]
    | _ -> []
  in
  (* The plan excuses sanity omissions only in degraded mode, so a
     zero-loss run takes exactly the seed's decision path. *)
  let degraded_mode = timed_out && external_ && cfg.degraded_quorum <> None in
  let plan = if degraded_mode then Some actions else None in
  let findings =
    failed @ unobserved @ dissent
    @ sanity ~mirror ?plan p ~origin
    @ policy cfg ~origin ~external_ actions
  in
  (* Can a reduced quorum stand behind the plan? Only when no hard
     fault fired and the responses that did arrive all agree. *)
  let degraded_ok =
    degraded_mode
    && List.for_all (fun f -> f.excusable) findings
    &&
    match (consensus, cfg.degraded_quorum) with
    | Agrees n, Some q -> n >= q
    | _ -> false
  in
  let detail = String.concat "; " (List.map (fun f -> f.note) findings) in
  let decided verdict = { verdict; suspects = []; detail } in
  if findings <> [] && not degraded_ok then
    { verdict =
        Alarm.Faulty
          (List.sort_uniq compare (List.map (fun f -> f.fault) findings));
      suspects = List.concat_map (fun f -> f.blamed) findings;
      detail }
  else
    match consensus with
    | Non_deterministic -> decided Alarm.Ok_non_deterministic
    | Unverifiable -> decided Alarm.Ok_unverifiable
    | Agrees n when degraded_ok -> (
        match stragglers p with
        | [] when findings = [] -> decided Alarm.Ok_valid
        | missing ->
            let quorum_note =
              Printf.sprintf
                "decided with reduced quorum (%d agreeing, %d straggler(s))" n
                (List.length missing)
            in
            { verdict = Alarm.Ok_degraded;
              suspects = [];
              detail =
                (if detail = "" then quorum_note
                 else detail ^ "; " ^ quorum_note) })
    | _ -> decided Alarm.Ok_valid

let verdict cfg ~mirror p ~timed_out =
  let external_ = Types.Taint.is_external p.taint in
  match primary_execution p with
  | None ->
      if timed_out then Some (lost_primary cfg ~mirror p ~external_) else None
  | Some (prim_r, actions) ->
      Some (judge cfg ~mirror p ~timed_out ~external_ prim_r actions)
