open Jury_sim
module Types = Jury_controller.Types
module Values = Jury_controller.Values
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Of_message = Jury_openflow.Of_message
module Of_match = Jury_openflow.Of_match
module Of_action = Jury_openflow.Of_action
module Dpid = Jury_openflow.Of_types.Dpid

type retransmit = { max_retries : int }

type config = {
  timeout : Time.t;
  adaptive_timeout : bool;
  state_aware : bool;
  nondet_rule : bool;
  policies : Jury_policy.Engine.t;
  master_lookup : Dpid.t -> int option;
  term_lookup : unit -> int;
  ack_peers_of : int -> int list;
  retransmit : retransmit option;
  degraded_quorum : int option;
  shards : int;
  max_inflight : int option;
}

type rule = Dpid.t * Of_message.flow_mod
type mirror = (string, string) Hashtbl.t

type report = {
  reporter : int;
  event : Event.t;
  first : bool;
  ack : bool;
  rule : rule option;
}

type write = {
  sender : int;
  dpid : Dpid.t;
  flow : Of_message.flow_mod;
  first : bool;
}

type input = {
  taint : Types.Taint.t;
  mutable primary : int option;
  mutable term : int;
  secondaries : int list;
  (* The accepted responses, filed by [record], each list newest first. *)
  mutable executions : Response.t list;
  mutable reports : report list;
  mutable writes : write list;
  mutable failures : (int * Types.action * string) list;
}

type decision = {
  verdict : Alarm.verdict;
  suspects : int list;
  detail : string;
}

(* --- Filing responses --- *)

(* Every response a trigger gets is filed, and then the trigger is
   tested for completeness, so the loops that read the filed lists are
   top-level functions. Without flambda a closure that captures a
   variable is a heap block, so one handed to [List.exists] would be
   built on every response. A finder that locates a filed entry returns
   the suffix of its list that the entry heads, or [[]]: an option that
   costs no words. *)

let rec has_execution from role = function
  | [] -> false
  | (q : Response.t) :: rest ->
      (q.controller = from
      && match q.body with Response.Execution e -> e.role = role | _ -> false)
      || has_execution from role rest

let same_event (a : Event.t) (b : Event.t) =
  a.Event.origin = b.Event.origin && a.Event.seq = b.Event.seq

(* Whether [from] already reported exactly [event]. *)
let rec has_report from event = function
  | [] -> false
  | (c : report) :: rest ->
      (c.reporter = from && c.event = event) || has_report from event rest

(* Whether anyone reported [event]'s (origin, seq). *)
let rec has_event event = function
  | [] -> false
  | (c : report) :: rest -> same_event c.event event || has_event event rest

(* Whether [from] reported [event]'s (origin, seq). *)
let rec has_event_from from event = function
  | [] -> false
  | (c : report) :: rest ->
      (c.reporter = from && same_event c.event event)
      || has_event_from from event rest

let rec has_write from dpid flow = function
  | [] -> false
  | (w : write) :: rest ->
      (w.sender = from && w.dpid = dpid && w.flow = flow)
      || has_write from dpid flow rest

(* Whether anyone sent the same FLOW_MOD to [dpid]. *)
let rec has_flow dpid flow = function
  | [] -> false
  | (w : write) :: rest ->
      (Dpid.equal w.dpid dpid
      && (w.flow == flow || w.flow = flow
         || String.equal (Values.Flow.value w.flow) (Values.Flow.value flow)))
      || has_flow dpid flow rest

(* The one place the duplicate and counting rules live. *)
let record p ?rule (r : Response.t) =
  let from = r.controller in
  match r.body with
  | Response.Execution { role; _ } ->
      let fresh = not (has_execution from role p.executions) in
      if fresh then p.executions <- r :: p.executions;
      fresh
  | Response.Cache_update event ->
      let fresh = not (has_report from event p.reports) in
      if fresh then begin
        let first = not (has_event event p.reports) in
        p.reports <-
          { reporter = from;
            event;
            first;
            ack =
              from <> event.Event.origin
              && not (has_event_from from event p.reports);
            rule = (if first then rule else None) }
          :: p.reports
      end;
      fresh
  | Response.Network_write { dpid; flow } ->
      let fresh = not (has_write from dpid flow p.writes) in
      if fresh then
        p.writes <-
          { sender = from; dpid; flow;
            first = not (has_flow dpid flow p.writes) }
          :: p.writes;
      fresh
  | Response.Write_failure { action; reason } ->
      let failure = (from, action, reason) in
      let fresh = not (List.mem failure p.failures) in
      if fresh then p.failures <- failure :: p.failures;
      fresh

(* --- Reading the filed responses --- *)

(* The actions of a filed execution. *)
let actions_of (r : Response.t) =
  match r.body with Response.Execution { actions; _ } -> actions | _ -> []

let rec primary_in primary = function
  | [] -> []
  | (r : Response.t) :: rest as here -> (
      match r.body with
      | Response.Execution { role = `Primary; _ } when r.controller = primary ->
          here
      | _ -> primary_in primary rest)

(* The current primary's execution report (one per controller and
   role: [record] drops the rest), heading its suffix of the filed
   executions. *)
let primary_execution p =
  match p.primary with
  | None -> []
  | Some primary -> primary_in primary p.executions

(* Only the secondaries the trigger was replicated to count and vote:
   a Secondary execution from any other controller is a stray. *)
let rec listed (controller : int) = function
  | [] -> false
  | s :: rest -> s = controller || listed controller rest

(* The listed secondaries' execution reports, in arrival order. Only
   dissent and a lost primary read them as a list. *)
let secondary_executions p =
  List.fold_left
    (fun acc (r : Response.t) ->
      match r.body with
      | Response.Execution { role = `Secondary; actions }
        when listed r.controller p.secondaries ->
          (r, actions) :: acc
      | _ -> acc)
    [] p.executions

(* The listed secondaries that answered: [record] files one execution
   per controller and role. *)
let rec secondary_count secondaries n = function
  | [] -> n
  | (r : Response.t) :: rest -> (
      match r.body with
      | Response.Execution { role = `Secondary; _ }
        when listed r.controller secondaries ->
          secondary_count secondaries (n + 1) rest
      | _ -> secondary_count secondaries n rest)

(* Allocates only the secondaries it returns. *)
let rec missing executions = function
  | [] -> []
  | s :: rest ->
      if has_execution s `Secondary executions then missing executions rest
      else s :: missing executions rest

let stragglers p = missing p.executions p.secondaries

(* The first copies of a trigger's FLOW_MODs that [keep] selects, in
   arrival order. *)
let first_writes keep p =
  List.fold_left
    (fun acc (w : write) -> if w.first && keep w then w :: acc else acc)
    [] p.writes

let rec earliest_report cache key origin found = function
  | [] -> found
  | (c : report) :: rest as here ->
      let e = c.event in
      earliest_report cache key origin
        (if
           c.first && Names.equal e.Event.cache cache && e.Event.key = key
           && e.Event.origin = origin
         then here
         else found)
        rest

(* The earliest first report of a write to ([cache], [key]) made by
   [origin], heading its suffix of the filed reports. *)
let first_report p ~cache ~key ~origin =
  earliest_report cache key origin [] p.reports

(* Whether [w] writes the rule of ([dpid], [fm]): same switch, match
   and priority. *)
let same_rule (w : write) dpid (fm : Of_message.flow_mod) =
  Dpid.equal w.dpid dpid
  && Of_match.equal w.flow.fm_match fm.fm_match
  && w.flow.priority = fm.priority

(* --- Completeness: can we decide before the timer? --- *)

(* The peers' acks of [event]. *)
let rec acks event n = function
  | [] -> n
  | (c : report) :: rest ->
      acks event (if c.ack && same_event c.event event then n + 1 else n) rest

let rec on_wire dpid (fm : Of_message.flow_mod) = function
  | [] -> false
  | (w : write) :: rest ->
      (w.first && same_rule w dpid fm && w.flow.command = fm.command)
      || on_wire dpid fm rest

(* Whether each action of the primary's plan has been observed: a cache
   write once its earliest first report has arrived and every peer of
   the origin has acked that event, a FLOW_MOD once it is on the
   wire. *)
let rec observed p ~primary ~peers = function
  | [] -> true
  | (a : Types.action) :: rest ->
      (match a with
      | Types.Cache_write { cache; key; _ } -> (
          match first_report p ~cache ~key ~origin:primary with
          | [] -> false
          | c :: _ -> acks c.event 0 p.reports >= peers)
      | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ->
          on_wire dpid fm p.writes
      | Types.Network_send _ -> true)
      && observed p ~primary ~peers rest

let complete cfg p =
  match primary_execution p with
  | [] -> false
  | prim :: _ ->
      let primary = prim.Response.controller in
      secondary_count p.secondaries 0 p.executions
      >= List.length p.secondaries
      && observed p ~primary
           ~peers:(List.length (cfg.ack_peers_of primary))
           (actions_of prim)

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
  | Types.Cache_write { cache = Names.Flowsdb as cache; op; key; value } -> (
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

let rec votes fp n = function
  | [] -> n
  | f :: rest -> votes fp (if String.equal f fp then n + 1 else n) rest

(* The most common of [fps], given in arrival order, and its votes. A
   tie goes to the one cast first. *)
let majority_fingerprint fps =
  List.fold_left
    (fun best fp ->
      let n = votes fp 0 fps in
      match best with Some (_, m) when m >= n -> best | _ -> Some (fp, n))
    None fps

type consensus =
  | Agrees of int  (* agreeing responses, primary included *)
  | Disagrees of int list  (* dissenting controllers *)
  | Non_deterministic
  | Unverifiable

(* Whether [r] may vote on the primary's response: under state-aware
   consensus, only from the primary's network view. *)
let same_view cfg (prim_r : Response.t) (r : Response.t) =
  (not cfg.state_aware) || Snapshot.equal r.snapshot prim_r.snapshot

(* The listed secondaries' executions comparable with the primary's,
   counted while each took the primary's actions; -1 once one did
   not. *)
let rec agreeing cfg p prim_r prim_actions n = function
  | [] -> n
  | (r : Response.t) :: rest -> (
      match r.body with
      | Response.Execution { role = `Secondary; actions }
        when listed r.controller p.secondaries && same_view cfg prim_r r ->
          if same_actions prim_actions actions then
            agreeing cfg p prim_r prim_actions (n + 1) rest
          else -1
      | _ -> agreeing cfg p prim_r prim_actions n rest)

(* Some comparable secondary took other actions: fingerprint every
   comparable response and count the votes. *)
let dissent cfg p (prim_r : Response.t) prim_actions =
  let comparable =
    List.filter
      (fun ((r : Response.t), _) -> same_view cfg prim_r r)
      (secondary_executions p)
  in
  let fingerprint = fingerprinter () in
  let prim_fp = fingerprint prim_actions in
  let fps =
    List.map
      (fun ((r : Response.t), actions) -> (r.controller, fingerprint actions))
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
        else Disagrees (Option.to_list p.primary)

let consensus cfg p prim_r prim_actions =
  match agreeing cfg p prim_r prim_actions 0 p.executions with
  | -1 -> dissent cfg p prim_r prim_actions
  | 0 ->
      if p.secondaries = [] then Agrees 1 (* nothing was replicated *)
      else Unverifiable
  | n -> Agrees (1 + n)

(* [secs] grouped by snapshot: groups in order of first appearance,
   each one's members in arrival order. *)
let rec place ((r : Response.t), _ as sec) = function
  | [] -> [ (r.snapshot, [ sec ]) ]
  | (snap, members) :: rest ->
      if Snapshot.equal snap r.snapshot then (snap, members @ [ sec ]) :: rest
      else (snap, members) :: place sec rest

let rec all_same first = function
  | [] -> true
  | (_, actions) :: rest -> same_actions first actions && all_same first rest

(* A group's most common action list and its votes; of equally common
   lists, the one taken first. *)
let group_majority fingerprint = function
  | (_, first) :: rest when all_same first rest ->
      Some (first, 1 + List.length rest)
  | members -> (
      let fps =
        List.map (fun (_, actions) -> (fingerprint actions, actions)) members
      in
      match majority_fingerprint (List.map fst fps) with
      | None -> None
      | Some (fp, n) -> Some (List.assoc fp fps, n))

(* The first group with the most votes. *)
let rec best_group fingerprint best = function
  | [] -> best
  | members :: rest ->
      let best =
        match (best, group_majority fingerprint members) with
        | _, None -> best
        | Some (_, bn), Some (_, n) when bn >= n -> best
        | _, found -> found
      in
      best_group fingerprint best rest

(* Best agreeing fingerprint among the secondary executions alone, for
   deciding a trigger whose primary response was lost in transit. Under
   state-aware consensus only replicas sharing a network view may form
   the quorum (§IV-C A still applies, just without the primary). Most
   votes wins; a tie goes to the earlier view, then within a view to the
   plan taken first. *)
let secondary_quorum cfg p =
  match secondary_executions p with
  | [] -> None
  | secs ->
      let groups =
        if cfg.state_aware then
          List.map snd (List.fold_left (fun acc sec -> place sec acc) [] secs)
        else [ secs ]
      in
      best_group (fingerprinter ()) None groups

(* --- Sanity check: cache vs network consistency for flow rules --- *)

(* Buffer ids differ between executions, so they are not compared. *)
let flows_equal (a : Of_message.flow_mod) (b : Of_message.flow_mod) =
  Of_match.equal a.fm_match b.fm_match
  && a.priority = b.priority
  && Of_action.equal_list a.actions b.actions
  && a.command = b.command

(* Whether the mirror holds this wire rule: a FLOW_MOD re-sent for a
   rule the store already holds (e.g. a reinstall after a switch-side
   timeout race) is backed by it. Rare, so the value is parsed here. *)
let mirrored mirror dpid (fm : Of_message.flow_mod) =
  match
    Hashtbl.find mirror (Values.Flow.key dpid fm.fm_match ~priority:fm.priority)
  with
  | value -> (
      match Values.Flow.parse value with
      | Some cfm -> flows_equal cfm fm
      | None -> false)
  | exception Not_found -> false

(* The switch and rule of a FLOWSDB entry, [None] when the key names no
   switch or the value is no rule. *)
let flow_entry key value =
  match Values.Flow.dpid_of_key key with
  | None -> None
  | Some dpid -> (
      match Values.Flow.parse value with
      | Some fm -> Some (dpid, fm)
      | None -> None)

let mirror_write mirror key value =
  let unchanged =
    match Hashtbl.find mirror key with
    | v -> String.equal v value
    | exception Not_found -> false
  in
  if unchanged then None
  else
    match Values.Flow.parse value with
    | None -> None
    | Some fm -> (
        Hashtbl.replace mirror key value;
        match Values.Flow.dpid_of_key key with
        | Some dpid -> Some (dpid, fm)
        | None -> None)

(* The switch and rule a first report installs: the parse its filing
   handed over, or a parse now when there was none (the value was
   already mirrored, or is no rule). *)
let report_rule (c : report) =
  match c.rule with
  | Some _ as rule -> rule
  | None -> flow_entry c.event.Event.key c.event.Event.value

(* The origin's FLOWSDB installs, at their first report, in arrival
   order. *)
let rec cache_flows origin acc = function
  | [] -> acc
  | (c : report) :: rest ->
      let ev = c.event in
      let acc =
        if
          c.first
          && Names.equal ev.Event.cache Names.flowsdb
          && ev.Event.origin = origin
          && (ev.Event.op = Event.Create || ev.Event.op = Event.Update)
        then
          match report_rule c with Some entry -> entry :: acc | None -> acc
        else acc
      in
      cache_flows origin acc rest

(* The first copy of a FLOW_MOD that installs a rule. *)
let installs (w : write) =
  w.first
  && (w.flow.command = Of_message.Add || w.flow.command = Of_message.Modify
     || w.flow.command = Of_message.Modify_strict)

let rec rule_installed dpid cfm = function
  | [] -> false
  | w :: rest ->
      (installs w && same_rule w dpid cfm) || rule_installed dpid cfm rest

let rec flow_installed dpid cfm = function
  | [] -> false
  | (w : write) :: rest ->
      (installs w && same_rule w dpid cfm && flows_equal w.flow cfm)
      || flow_installed dpid cfm rest

let rec has_rule w = function
  | [] -> false
  | (dpid, cfm) :: rest -> same_rule w dpid cfm || has_rule w rest

(* Whether [plan] sends the rule ([dpid], [fm]). *)
let rec plans_send dpid fm = function
  | [] -> false
  | Types.Network_send { dpid = d; payload = Of_message.Flow_mod rule } :: rest
    ->
      (Dpid.equal d dpid && flows_equal rule fm) || plans_send dpid fm rest
  | _ :: rest -> plans_send dpid fm rest

(* Whether [plan] writes the rule ([dpid], [fm]) to FLOWSDB. Only
   degraded mode asks, so the plan's values are parsed here. *)
let rec plans_cache_flow dpid fm = function
  | [] -> false
  | Types.Cache_write { cache = Names.Flowsdb; key; value; _ } :: rest -> (
      match flow_entry key value with
      | Some (d, rule) when Dpid.equal d dpid && flows_equal rule fm -> true
      | _ -> plans_cache_flow dpid fm rest)
  | _ :: rest -> plans_cache_flow dpid fm rest

(* A finding the primary's plan accounts for is an omission. *)
let found ~planned ~origin fault note acc =
  (if planned then omission origin note else hard fault [ origin ] note)
  :: acc

(* Each cache install needs its rule on the wire, with the same
   actions. *)
let rec check_cache_flows p ~plan ~origin acc = function
  | [] -> acc
  | (dpid, cfm) :: rest ->
      let acc =
        if not (rule_installed dpid cfm p.writes) then
          found ~planned:(plans_send dpid cfm plan) ~origin
            Alarm.Cache_without_network
            (Format.asprintf "no FLOW_MOD on wire for cache entry %a@%a"
               Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid)
            acc
        else if not (flow_installed dpid cfm p.writes) then
          found ~planned:false ~origin Alarm.Cache_network_mismatch
            (Format.asprintf "cache and wire disagree for %a@%a"
               Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid)
            acc
        else acc
      in
      check_cache_flows p ~plan ~origin acc rest

(* Each install on the wire needs a cache backing, in this trigger or
   in the mirror; [writes] is walked oldest first. *)
let rec check_writes ~mirror ~plan ~origin flows acc = function
  | [] -> acc
  | (w : write) :: rest ->
      let acc = check_writes ~mirror ~plan ~origin flows acc rest in
      if
        installs w
        && not (has_rule w flows || mirrored mirror w.dpid w.flow)
      then
        (* Planned: the primary's plan includes the backing cache write;
           only its externalised event was lost. *)
        found
          ~planned:(plans_cache_flow w.dpid w.flow plan)
          ~origin Alarm.Network_without_cache
          (Format.asprintf "FLOW_MOD %a@%a has no cache backing" Of_match.pp
             w.flow.fm_match Dpid.pp w.dpid)
          acc
      else acc

(* [plan] is non-empty only in degraded-quorum mode, after a timeout on
   a lossy channel: an inconsistency that the primary's own execution
   plan accounts for is an omission, not a fault — the observation was
   lost in transit, the action was not invented. The hard faults come
   newest first, then the omissions oldest first: the order their
   details are joined in. Beyond the origin's resolved installs, only
   findings allocate. *)
let sanity ~mirror ~plan p ~origin =
  let flows = cache_flows origin [] p.reports in
  match
    check_writes ~mirror ~plan ~origin flows
      (check_cache_flows p ~plan ~origin [] flows)
      p.writes
  with
  | [] -> []
  | found ->
      List.filter (fun f -> not f.excusable) found
      @ List.rev (List.filter (fun f -> f.excusable) found)

(* --- Policy check --- *)

let rec policy_queries cfg ~origin ~external_ = function
  | [] -> []
  | Types.Cache_write { cache; op; key; value } :: rest ->
      let destination =
        match cache with
        | Names.Flowsdb -> (
            match Values.Flow.dpid_of_key key with
            | Some dpid ->
                if cfg.master_lookup dpid = Some origin then `Local
                else `Remote
            | None -> `Local)
        | _ -> `Local
      in
      let query =
        { Jury_policy.Ast.q_controller = origin;
          q_trigger = (if external_ then `External else `Internal);
          q_cache = cache;
          q_op = op;
          q_key = key;
          q_value = value;
          q_destination = destination }
      in
      query :: policy_queries cfg ~origin ~external_ rest
  | Types.Network_send _ :: rest -> policy_queries cfg ~origin ~external_ rest

let rec violations ~origin = function
  | [] -> []
  | (r : Jury_policy.Ast.rule) :: rest ->
      let f =
        hard (Alarm.Policy_violation r.Jury_policy.Ast.name) [ origin ]
          (Format.asprintf "%a" Jury_policy.Ast.pp_rule r)
      in
      f :: violations ~origin rest

let policy cfg ~origin ~external_ actions =
  (* With no rules installed no query can match; skip building the
     query records entirely. Besides being a hot-path win, this keeps
     the policy-free validator from consulting [master_lookup] — which
     reads live cluster mastership — so staged shard replicas never
     touch main-domain state. *)
  if Jury_policy.Engine.rule_count cfg.policies = 0 then []
  else
    (* Per-response hot path: consult the compiled decision structure
       (memoised per engine generation — compiled once at Jury_config
       time), not the interpreter's rule-list scan. *)
    violations ~origin
      (Jury_policy.Compiled.check_all
         (Jury_policy.Engine.compiled cfg.policies)
         (policy_queries cfg ~origin ~external_ actions))

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

(* Timed out with missing externalisation: the plan says a write should
   exist; did its cache event arrive? *)
let rec unobserved p ~origin = function
  | [] -> []
  | Types.Cache_write { cache; key; _ } :: rest -> (
      match first_report p ~cache ~key ~origin with
      | [] ->
          let f =
            omission origin
              (Printf.sprintf "cache update %s/%s never observed"
                 (Names.to_string cache) key)
          in
          f :: unobserved p ~origin rest
      | _ :: _ -> unobserved p ~origin rest)
  | Types.Network_send _ :: rest -> unobserved p ~origin rest

let decided verdict detail = { verdict; suspects = []; detail }

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
  let unobserved =
    if timed_out && p.failures = [] then unobserved p ~origin actions else []
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
  let findings =
    failed @ unobserved @ dissent
    @ sanity ~mirror ~plan:(if degraded_mode then actions else []) p ~origin
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
  if findings <> [] && not degraded_ok then
    { verdict =
        Alarm.Faulty
          (List.sort_uniq compare (List.map (fun f -> f.fault) findings));
      suspects = List.concat_map (fun f -> f.blamed) findings;
      detail }
  else
    match consensus with
    | Non_deterministic -> decided Alarm.Ok_non_deterministic detail
    | Unverifiable -> decided Alarm.Ok_unverifiable detail
    | Agrees n when degraded_ok -> (
        match stragglers p with
        | [] when findings = [] -> decided Alarm.Ok_valid detail
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
    | _ -> decided Alarm.Ok_valid detail

let verdict cfg ~mirror p ~timed_out =
  let external_ = Types.Taint.is_external p.taint in
  match primary_execution p with
  | [] ->
      if timed_out then Some (lost_primary cfg ~mirror p ~external_) else None
  | prim :: _ ->
      Some (judge cfg ~mirror p ~timed_out ~external_ prim (actions_of prim))
