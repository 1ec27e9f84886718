open Jury_sim
module Types = Jury_controller.Types
module Values = Jury_controller.Values
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Of_message = Jury_openflow.Of_message
module Of_match = Jury_openflow.Of_match
module Of_action = Jury_openflow.Of_action
module Dpid = Jury_openflow.Of_types.Dpid

type retransmit = {
  fraction : float;
  backoff : float;
  max_retries : int;
}

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

(* One accepted Cache_update. [first] marks the first report of its
   (origin, seq): the copy the checks read. [ack] marks a peer of the
   origin reporting the event for the first time: what completeness
   counts toward the origin's ack quorum. *)
type report = { reporter : int; event : Event.t; first : bool; ack : bool }

(* One accepted intercepted FLOW_MOD. [first] marks the first delivery
   of its (dpid, encoding). *)
type write = {
  sender : int;
  dpid : Dpid.t;
  flow : Of_message.flow_mod;
  first : bool;
}

type pending = {
  taint : Types.Taint.t;
  shard : int;  (* owning shard, fixed by hash(taint) at creation *)
  epoch : int;  (* registration epoch, the unit [max_inflight] sheds *)
  mutable trigger_at : Time.t;
  mutable primary : int option;
  mutable term : int;  (* leadership term; bumped when re-attributed *)
  mutable secondaries : int list;
  (* The accepted responses, filed by [record], each list newest first. *)
  mutable executions : Response.t list;
  mutable reports : report list;
  mutable writes : write list;
  mutable failures : (int * Types.action * string) list;
  mutable timer : Engine.handle option;
  mutable decided : bool;
  mutable retry_round : int;
  mutable retry_timer : Engine.handle option;
}

(* One shard of verdict state: its own pending table, retransmission
   timer wheel (the retry timers of its pendings, tracked by the
   [Retry_armed] counter) and counters. Taints hash to a shard; with
   [shards = 1] everything lands in shard 0 and the data structures
   behave byte-for-byte like the historical flat table. *)
type shard = {
  pending : (string, pending) Hashtbl.t;
  counts : int array;  (* indexed by [Counter.index] *)
}

(* Hooks a staged-pipeline front end (Stage) installs on a validator:
   when set, registrations/deliveries/flushes are diverted to per-shard
   queues instead of touching this validator's own state, and the
   pipeline merges its shard replicas back at [pl_drain]. *)
type pipeline_hooks = {
  pl_register :
    taint:Types.Taint.t -> at:Time.t -> primary:int ->
    secondaries:int list -> unit;
  pl_batch : at:Time.t -> Response.t list -> unit;
  pl_drain : at:Time.t -> unit;
}

type t = {
  engine : Engine.t;
  cfg : config;
  shards : shard array;  (* length = cfg.shards, a power of two *)
  flow_mirror : (string, string * Of_message.flow_mod) Hashtbl.t;
      (* validator-side FLOWSDB state, built from every cache update it
         has seen: key -> (value string, parsed rule); lets the sanity
         check accept a re-sent FLOW_MOD whose cache entry predates this
         trigger. Every replica reports the same update, so the value
         string is kept and a rule is parsed only when it changes.
         Shared across shards: the mirror is FLOWSDB replica state, not
         per-trigger state. *)
  epoch_length : int;  (* registrations per epoch *)
  mutable reg_count : int;
  admitted : pending Queue.t;
      (* Under [max_inflight] only: every registered record in
         registration order. Each registration pops the decided ones off
         the front, so the queue never holds more than the registrations
         made since the oldest undecided trigger. *)
  mutable verdicts : Alarm.t list;  (* newest first *)
  mutable response_observers : (Response.t -> unit) list;
      (* newest first; reversed at dispatch so observers run in
         registration order without quadratic appends *)
  mutable verdict_observers : (Alarm.t -> unit) list;
  mutable retransmit_handler : Types.Taint.t -> secondary:int -> unit;
  (* Adaptive validation timeout (the paper's SVIII-1 extension): track
     recent completion latencies RTO-style and size theta-tau as
     srtt + 4*rttvar, clamped to [min_timeout, cfg.timeout]. *)
  mutable srtt_ms : float;
  mutable rttvar_ms : float;
  mutable rtt_samples : int;
  mutable pipeline : pipeline_hooks option;
}

let make_shard () =
  { pending = Hashtbl.create 256; counts = Array.make Counter.cardinal 0 }

let add sh c n =
  let i = Counter.index c in
  sh.counts.(i) <- sh.counts.(i) + n

let create engine cfg =
  { engine;
    cfg;
    shards = Array.init cfg.shards (fun _ -> make_shard ());
    flow_mirror = Hashtbl.create 256;
    epoch_length =
      (* Short enough that the high-water mark always finds triggers of
         an older epoch to shed behind the current one. *)
      (match cfg.max_inflight with
      | Some m -> max 1 (m / 4)
      | None -> 1024);
    reg_count = 0;
    admitted = Queue.create ();
    verdicts = [];
    response_observers = [];
    verdict_observers = [];
    retransmit_handler = (fun _ ~secondary:_ -> ());
    srtt_ms = Time.to_float_ms cfg.timeout /. 4.;
    rttvar_ms = Time.to_float_ms cfg.timeout /. 8.;
    rtt_samples = 0;
    pipeline = None }

let shard_count t = Array.length t.shards

let shard_of t key =
  let n = Array.length t.shards in
  if n = 1 then 0 else Hashtbl.hash key land (n - 1)

(* The adaptive θτ's floor. *)
let min_timeout = Time.ms 10

let current_timeout t =
  if t.cfg.adaptive_timeout && t.rtt_samples >= 20 then begin
    (* Wider than TCP's classic 4x: completion latencies are heavy-
       tailed (lognormal), so the estimator keeps extra headroom. *)
    let rto = t.srtt_ms +. (8. *. t.rttvar_ms) in
    Time.max min_timeout
      (Time.min t.cfg.timeout (Time.of_float_ms rto))
  end
  else t.cfg.timeout

let observe_completion_latency t latency =
  let ms = Time.to_float_ms latency in
  if t.rtt_samples = 0 then begin
    t.srtt_ms <- ms;
    t.rttvar_ms <- ms /. 2.
  end
  else begin
    t.rttvar_ms <- (0.75 *. t.rttvar_ms) +. (0.25 *. abs_float (t.srtt_ms -. ms));
    t.srtt_ms <- (0.875 *. t.srtt_ms) +. (0.125 *. ms)
  end;
  t.rtt_samples <- t.rtt_samples + 1

let set_retransmit_handler t f = t.retransmit_handler <- f
let on_response t f = t.response_observers <- f :: t.response_observers
let on_verdict t f = t.verdict_observers <- f :: t.verdict_observers

(* --- Filing responses --- *)

(* File an arriving response in its list, the one place the duplicate
   and counting rules live. Returns [false] for a stale channel
   duplicate: a second Execution from the same (controller, role), or
   the same body again from the same controller. The first delivery
   wins, so a duplicate can never satisfy consensus or a quorum twice. *)
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

(* Secondaries that never produced an Execution response. *)
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

(* --- Completeness: can we decide before the timer? --- *)

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
      | Types.Cache_write { cache; op; key; value } ->
          Some (cache, op, key, value)
      | Types.Network_send _ -> None)
    actions

(* There are as many secondary executions as secondaries, each of the
   primary's cache writes has arrived (its earliest first report counts)
   and been acked by all of the origin's peers, and each of its FLOW_MODs
   is on the wire. *)
let complete t p =
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
      && (let peers = List.length (t.cfg.ack_peers_of primary) in
          List.for_all
            (fun (a : Types.action) ->
              match a with
              | Types.Cache_write { cache; key; _ } -> (
                  let cache = Names.normalize cache in
                  let written =
                    List.fold_left
                      (fun found (c : report) ->
                        let e = c.event in
                        if
                          c.first && e.Event.cache = cache && e.Event.key = key
                          && e.Event.origin = primary
                        then Some e
                        else found)
                      None p.reports
                  in
                  match written with
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
                      w.first && Dpid.equal w.dpid dpid
                      && Of_match.equal w.flow.fm_match fm.fm_match
                      && w.flow.priority = fm.priority
                      && w.flow.command = fm.command)
                    p.writes
              | Types.Network_send _ -> true)
            actions)

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

(* [response_fingerprint] for one decision, computed once per distinct
   action list: the k+1 executions of a trigger mostly carry
   structurally equal lists, and actions hold no closures or floats, so
   [=] is exact. *)
let fingerprinter () =
  let seen = ref [] in
  fun actions ->
    match List.assoc_opt actions !seen with
    | Some fp -> fp
    | None ->
        let fp = response_fingerprint actions in
        seen := (actions, fp) :: !seen;
        fp

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

type consensus_result =
  | Agrees of int  (* agreeing responses, primary included *)
  | Disagrees of int list  (* dissenting controllers *)
  | Non_deterministic
  | Unverifiable

let run_consensus t p (prim_r : Response.t) prim_actions =
  let secondaries = secondary_executions p in
  if secondaries = [] then
    if p.secondaries = [] then Agrees 1 (* nothing was replicated *)
    else Unverifiable
  else begin
    let fingerprint = fingerprinter () in
    let prim_fp = fingerprint prim_actions in
    let comparable =
      if t.cfg.state_aware then
        List.filter
          (fun ((r : Response.t), _) ->
            Snapshot.equal r.snapshot prim_r.Response.snapshot)
          secondaries
      else secondaries
    in
    match comparable with
    | [] -> Unverifiable
    | _ -> (
        let fps =
          List.map
            (fun ((r : Response.t), actions) ->
              (r.controller, fingerprint actions))
            comparable
        in
        let all = prim_fp :: List.map snd fps in
        let distinct = List.sort_uniq String.compare all in
        if
          t.cfg.nondet_rule
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
              else
                Disagrees
                  (match p.primary with Some id -> [ id ] | None -> []))
  end

(* Best agreeing fingerprint among the secondary executions alone, for
   deciding a trigger whose primary response was lost in transit. Under
   state-aware consensus only replicas sharing a network view may form
   the quorum (§IV-C A still applies, just without the primary). *)
let secondary_quorum t p =
  match secondary_executions p with
  | [] -> None
  | secs ->
      let groups =
        if t.cfg.state_aware then
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
      List.fold_left
        (fun best members ->
          let fps =
            List.map (fun (_, actions) -> (fingerprint actions, actions)) members
          in
          match majority_fingerprint (List.map fst fps) with
          | None -> best
          | Some (fp, n) -> (
              match best with
              | Some (_, bn) when bn >= n -> best
              | _ -> Some (List.assoc fp fps, n)))
        None groups

(* --- Sanity check: cache vs network consistency for flow rules --- *)

let flows_equal (a : Of_message.flow_mod) (b : Of_message.flow_mod) =
  let a = normalize_flow a and b = normalize_flow b in
  Of_match.equal a.fm_match b.fm_match
  && a.priority = b.priority
  && Of_action.equal_list a.actions b.actions
  && a.command = b.command

(* When [plan] is given (degraded-quorum mode, after a timeout on a
   lossy channel) an inconsistency that the primary's own execution plan
   accounts for is excused: the observation was lost in transit, the
   action was not invented. Excused entries are returned separately so
   the caller can either degrade the verdict or, if no quorum backs the
   plan, reinstate them as faults. *)
let run_sanity ~mirror ?plan p ~origin =
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
          match
            (Values.Flow.dpid_of_key ev.Event.key,
             Values.Flow.parse ev.Event.value)
          with
          | Some dpid, Some fm -> (dpid, fm) :: acc
          | _ -> acc
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
  let planned_sends =
    match plan with Some actions -> flow_mod_sends actions | None -> []
  in
  let planned_cache_flows =
    match plan with
    | None -> []
    | Some actions ->
        List.filter_map
          (fun (cache, _, key, value) ->
            if Names.normalize cache = Names.flowsdb then
              match
                (Values.Flow.dpid_of_key key, Values.Flow.parse value)
              with
              | Some dpid, Some fm -> Some (dpid, fm)
              | _ -> None
            else None)
          (cache_writes actions)
  in
  let faults = ref [] in
  let excused = ref [] in
  let add f detail = faults := (f, detail) :: !faults in
  let excuse f detail = excused := (f, detail) :: !excused in
  List.iter
    (fun (dpid, cfm) ->
      let same_switch =
        List.filter (fun (w : write) -> Dpid.equal w.dpid dpid) nets
      in
      let same_match =
        List.filter
          (fun (w : write) ->
            Of_match.equal w.flow.fm_match cfm.Of_message.fm_match
            && w.flow.priority = cfm.Of_message.priority)
          same_switch
      in
      match same_match with
      | [] ->
          let planned =
            List.exists
              (fun (d, (pfm : Of_message.flow_mod)) ->
                Dpid.equal d dpid && flows_equal pfm cfm)
              planned_sends
          in
          let report = if planned then excuse else add in
          report Alarm.Cache_without_network
            (Format.asprintf "no FLOW_MOD on wire for cache entry %a@%a"
               Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid)
      | writes ->
          if
            not
              (List.exists (fun (w : write) -> flows_equal w.flow cfm) writes)
          then
            add Alarm.Cache_network_mismatch
              (Format.asprintf "cache and wire disagree for %a@%a"
                 Of_match.pp cfm.Of_message.fm_match Dpid.pp dpid))
    cache_flows;
  List.iter
    (fun ({ dpid; flow = nfm; _ } : write) ->
      let in_trigger =
        List.exists
          (fun (d, cfm) ->
            Dpid.equal d dpid
            && Of_match.equal cfm.Of_message.fm_match nfm.fm_match
            && cfm.Of_message.priority = nfm.priority)
          cache_flows
      in
      let in_mirror () =
        (* A FLOW_MOD re-sent for a rule the store already holds (e.g. a
           reinstall after a switch-side timeout race) is consistent if
           it matches the mirrored entry. *)
        let key = Values.Flow.key dpid nfm.fm_match ~priority:nfm.priority in
        match Hashtbl.find_opt mirror key with
        | Some (_, cfm) -> flows_equal cfm nfm
        | None -> false
      in
      let in_plan () =
        (* The primary's plan includes the backing cache write; only its
           externalised event was lost. *)
        List.exists
          (fun (d, (pfm : Of_message.flow_mod)) ->
            Dpid.equal d dpid && flows_equal pfm nfm)
          planned_cache_flows
      in
      if not (in_trigger || in_mirror ()) then
        let report = if in_plan () then excuse else add in
        report Alarm.Network_without_cache
          (Format.asprintf "FLOW_MOD %a@%a has no cache backing" Of_match.pp
             nfm.fm_match Dpid.pp dpid))
    nets;
  (!faults, List.rev !excused)

(* --- Policy check --- *)

let run_policy t p ~origin ~external_ actions =
  (* With no rules installed no query can match; skip building the
     query records entirely. Besides being a hot-path win, this keeps
     the policy-free validator from consulting [master_lookup] — which
     reads live cluster mastership — so staged shard replicas never
     touch main-domain state. *)
  if Jury_policy.Engine.rule_count t.cfg.policies = 0 then (ignore p; [])
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
                    if t.cfg.master_lookup dpid = Some origin then `Local
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
  ignore p;
  (* Per-response hot path: consult the compiled decision structure
     (memoised per engine generation — compiled once at Jury_config
     time), not the interpreter's rule-list scan. *)
  Jury_policy.Compiled.check_all
    (Jury_policy.Engine.compiled t.cfg.policies)
    queries
  |> List.map (fun (r : Jury_policy.Ast.rule) ->
         (Alarm.Policy_violation r.Jury_policy.Ast.name,
          Format.asprintf "%a" Jury_policy.Ast.pp_rule r))

(* --- Decision --- *)

let finish t p (verdict : Alarm.verdict) ~suspects ~detail =
  let sh = t.shards.(p.shard) in
  p.decided <- true;
  (match p.timer with Some h -> Engine.cancel h | None -> ());
  (match p.retry_timer with
  | Some h ->
      Engine.cancel h;
      add sh Retry_armed (-1)
  | None -> ());
  p.retry_timer <- None;
  let stragglers = stragglers p in
  add sh Straggler (List.length stragglers);
  Hashtbl.remove sh.pending (Types.Taint.to_string p.taint);
  let alarm =
    { Alarm.taint = p.taint;
      trigger_at = p.trigger_at;
      decided_at = Engine.now t.engine;
      primary = p.primary;
      suspects = List.sort_uniq compare suspects;
      term = p.term;
      verdict;
      detail }
  in
  (let tr = Engine.trace t.engine in
   if Jury_obs.Trace.enabled tr then begin
     let taint = Types.Taint.to_string p.taint in
     let t_ns = Engine.now_ns t.engine in
     let attrs =
       [ ("verdict", Alarm.verdict_name verdict);
         ("detection_ms",
          Printf.sprintf "%.3f" (Time.to_float_ms (Alarm.detection_time alarm)));
         ("suspects",
          String.concat "," (List.map string_of_int alarm.Alarm.suspects)) ]
     in
     let attrs =
       if stragglers = [] then attrs
       else
         ("stragglers",
          String.concat "," (List.map string_of_int stragglers))
         :: attrs
     in
     let attrs =
       if p.term > 0 then ("term", string_of_int p.term) :: attrs else attrs
     in
     Jury_obs.Trace.point tr ~t_ns ~taint ~phase:Jury_obs.Trace.Verdict
       ?node:p.primary
       (if detail = "" then attrs else ("detail", detail) :: attrs);
     Jury_obs.Trace.close_root tr ~t_ns ~taint
       [ ("verdict", Alarm.verdict_name verdict) ]
   end);
  t.verdicts <- alarm :: t.verdicts;
  add sh Decided 1;
  (match verdict with
  | Alarm.Faulty _ -> add sh Faulty 1
  | Alarm.Ok_unverifiable -> add sh Unverifiable 1
  | Alarm.Ok_degraded -> add sh Degraded 1
  | Alarm.Overload -> add sh Overload 1
  | Alarm.Ok_valid | Alarm.Ok_non_deterministic -> ());
  List.iter (fun f -> f alarm) (List.rev t.verdict_observers)

let evaluate t p ~timed_out =
  if not p.decided then begin
    let external_ = Types.Taint.is_external p.taint in
    let failures = List.rev p.failures in
    match primary_execution p with
    | None ->
        if timed_out then begin
          (* No execution record at all. If the trigger consists of
             intercepted FLOW_MODs with no cache backing, the sender
             bypassed its cache — a misbehaving controller (§II-A.3).
             Otherwise it is a plain response omission — unless enough
             equivalent-view replicated executions agree, in which case
             the lossy channel ate the primary's report and the trigger
             is decided with a reduced quorum. *)
          let stray =
            first_writes
              (fun w ->
                let key =
                  Values.Flow.key w.dpid w.flow.fm_match
                    ~priority:w.flow.priority
                in
                match Hashtbl.find_opt t.flow_mirror key with
                | Some (_, cfm) -> not (flows_equal cfm w.flow)
                | None -> true)
              p
          in
          if stray <> [] then
            finish t p
              (Alarm.Faulty [ Alarm.Network_without_cache ])
              ~suspects:(List.map (fun (w : write) -> w.sender) stray)
              ~detail:
                "FLOW_MOD on the wire with no cache backing and no response"
          else begin
            let quorum =
              match t.cfg.degraded_quorum with
              | Some q when external_ && failures = [] -> (
                  match secondary_quorum t p with
                  | Some (actions, n) when n >= q ->
                      let origin =
                        match p.primary with Some id -> id | None -> -1
                      in
                      if run_policy t p ~origin ~external_ actions = [] then
                        Some n
                      else None
                  | _ -> None)
              | _ -> None
            in
            match quorum with
            | Some n ->
                finish t p Alarm.Ok_degraded ~suspects:[]
                  ~detail:
                    (Printf.sprintf
                       "primary response lost; %d equivalent-view replica \
                        response(s) agree"
                       n)
            | None ->
                finish t p
                  (Alarm.Faulty [ Alarm.Response_timeout ])
                  ~suspects:(Option.to_list p.primary)
                  ~detail:"no primary response before validation timeout"
          end
        end
        else () (* keep waiting *)
    | Some (prim_r, prim_actions) ->
        let origin = prim_r.Response.controller in
        let faults = ref [] in
        let suspects = ref [] in
        let details = ref [] in
        (* Omissions: observations the plan promises but the validator
           never saw. They stay separate from hard faults until we know
           whether a reduced quorum can vouch for the plan. *)
        let omissions = ref [] in
        (* Write failures are response omissions in the making: the
           controller planned a cache write the store refused. *)
        List.iter
          (fun (ctrl, _, reason) ->
            faults := Alarm.Response_timeout :: !faults;
            suspects := ctrl :: !suspects;
            details := ("cache write failed: " ^ reason) :: !details)
          failures;
        let degraded_mode =
          timed_out && external_ && t.cfg.degraded_quorum <> None
        in
        (* Timed-out evaluation with missing externalisation: the plan
           says a write should exist; did its cache event arrive? *)
        if timed_out && failures = [] then begin
          List.iter
            (fun (cache, _, key, _) ->
              if
                not
                  (List.exists
                     (fun (c : report) ->
                       c.first
                       && c.event.Event.cache = Names.normalize cache
                       && c.event.Event.key = key
                       && c.event.Event.origin = origin)
                     p.reports)
              then begin
                omissions :=
                  (Alarm.Response_timeout, origin) :: !omissions;
                details :=
                  Printf.sprintf "cache update %s/%s never observed"
                    cache key
                  :: !details
              end)
            (cache_writes prim_actions)
        end;
        (* CONSENSUS *)
        let nondet = ref false in
        let unverifiable = ref false in
        let agree_n = ref 0 in
        (if external_ then
           match run_consensus t p prim_r prim_actions with
           | Agrees n -> agree_n := n
           | Non_deterministic -> nondet := true
           | Unverifiable -> unverifiable := true
           | Disagrees dissenters ->
               faults := Alarm.Consensus_mismatch :: !faults;
               suspects := dissenters @ !suspects;
               details :=
                 Printf.sprintf "consensus dissent by [%s]"
                   (String.concat ","
                      (List.map string_of_int dissenters))
                 :: !details);
        (* SANITY — with the plan fallback only in degraded mode, so a
           zero-loss run takes exactly the seed's decision path. *)
        let sanity_faults, excused =
          if degraded_mode then
            run_sanity ~mirror:t.flow_mirror ~plan:prim_actions p ~origin
          else run_sanity ~mirror:t.flow_mirror p ~origin
        in
        List.iter
          (fun (f, d) ->
            faults := f :: !faults;
            suspects := origin :: !suspects;
            details := d :: !details)
          sanity_faults;
        List.iter
          (fun (_, d) ->
            omissions := (Alarm.Response_timeout, origin) :: !omissions;
            details := d :: !details)
          excused;
        (* POLICY *)
        List.iter
          (fun (f, d) ->
            faults := f :: !faults;
            suspects := origin :: !suspects;
            details := d :: !details)
          (run_policy t p ~origin ~external_ prim_actions);
        (* Can a reduced quorum stand behind the plan? Only when no hard
           fault fired and the responses that did arrive all agree. *)
        let degraded_ok =
          degraded_mode && !faults = []
          && (not !nondet) && not !unverifiable
          &&
          match t.cfg.degraded_quorum with
          | Some q -> !agree_n >= q
          | None -> false
        in
        if not degraded_ok then
          List.iter
            (fun (f, ctrl) ->
              faults := f :: !faults;
              suspects := ctrl :: !suspects)
            (List.rev !omissions);
        let missing = stragglers p in
        let detail = String.concat "; " (List.rev !details) in
        if !faults <> [] then
          finish t p
            (Alarm.Faulty (List.sort_uniq compare !faults))
            ~suspects:!suspects ~detail
        else if !nondet then
          finish t p Alarm.Ok_non_deterministic ~suspects:[] ~detail
        else if !unverifiable then
          finish t p Alarm.Ok_unverifiable ~suspects:[] ~detail
        else if degraded_ok && (!omissions <> [] || missing <> []) then
          finish t p Alarm.Ok_degraded ~suspects:[]
            ~detail:
              (let quorum_note =
                 Printf.sprintf
                   "decided with reduced quorum (%d agreeing, %d straggler(s))"
                   !agree_n (List.length missing)
               in
               if detail = "" then quorum_note
               else detail ^ "; " ^ quorum_note)
        else finish t p Alarm.Ok_valid ~suspects:[] ~detail
  end

(* A trigger-scoped event: decides/updates only this trigger's entry
   (shard counters it bumps are commutative). The two per-validator
   couplings that break that — the adaptive-timeout estimator, which
   every decision feeds and every later timer reads, and the
   [max_inflight] admission queue, where one verdict releases the next
   queued trigger — force the conservative opaque footprint instead. *)
let trigger_footprint (cfg : config) taint =
  if cfg.adaptive_timeout || cfg.max_inflight <> None then Footprint.opaque
  else Footprint.touches [ Footprint.taint (Types.Taint.to_string taint) ]

let entry_footprint t (p : pending) = trigger_footprint t.cfg p.taint

let arm_timer t p =
  if p.timer = None then
    p.timer <-
      Some
        (Engine.schedule t.engine
           ~footprint:(entry_footprint t p)
           ~after:(current_timeout t)
           (fun () -> evaluate t p ~timed_out:true))

(* --- Bounded retransmission with exponential backoff --- *)

let retry_delay t (rt : retransmit) round =
  let theta = Time.to_float_ms (current_timeout t) in
  Time.of_float_ms (theta *. rt.fraction *. (rt.backoff ** float_of_int round))

let rec arm_retry t p rt =
  add t.shards.(p.shard) Retry_armed 1;
  p.retry_timer <-
    Some
      (Engine.schedule t.engine
         ~after:(retry_delay t rt p.retry_round)
         (fun () -> fire_retry t p rt))

and fire_retry t p (rt : retransmit) =
  let sh = t.shards.(p.shard) in
  p.retry_timer <- None;
  add sh Retry_armed (-1);
  if not p.decided then begin
    match stragglers p with
    | [] -> () (* everyone answered; no more retries needed *)
    | missing ->
        List.iter
          (fun secondary ->
            add sh Retransmit 1;
            t.retransmit_handler p.taint ~secondary)
          missing;
        p.retry_round <- p.retry_round + 1;
        if p.retry_round < rt.max_retries then arm_retry t p rt
  end

(* --- The in-flight high-water mark --- *)

let pending_count ?shard t =
  match shard with
  | Some s -> Hashtbl.length t.shards.(s).pending
  | None ->
      Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.pending) 0 t.shards

(* Force-decide every still-undecided trigger registered in epoch [e],
   the front of [admitted]: shard by shard, oldest registration first. *)
let force_expire_epoch t e =
  let rec take acc =
    match Queue.peek_opt t.admitted with
    | Some p when p.epoch = e -> take (Queue.pop t.admitted :: acc)
    | _ -> List.rev acc
  in
  let detail =
    Printf.sprintf "epoch %d force-expired at max_inflight high-water mark" e
  in
  List.iter
    (fun p ->
      if not p.decided then finish t p Alarm.Overload ~suspects:[] ~detail)
    (List.stable_sort (fun a b -> compare a.shard b.shard) (take []))

(* Called before each registration. Expiring the oldest epoch first
   mirrors the paper's argument that a verdict delayed past several
   epoch lengths of newer traffic has lost its diagnostic value anyway. *)
let rec enforce_inflight t m =
  match Queue.peek_opt t.admitted with
  | Some p when p.decided ->
      ignore (Queue.pop t.admitted);
      enforce_inflight t m
  | Some p
    when pending_count t >= m
         (* never eat the epoch being filled *)
         && p.epoch < t.reg_count / t.epoch_length ->
      force_expire_epoch t p.epoch;
      enforce_inflight t m
  | _ -> ()

let add_pending t ~key ~shard ~taint ~at ~primary ~secondaries =
  (match t.cfg.max_inflight with Some m -> enforce_inflight t m | None -> ());
  t.reg_count <- t.reg_count + 1;
  let p =
    { taint;
      shard;
      epoch = t.reg_count / t.epoch_length;
      trigger_at = at;
      primary;
      term = t.cfg.term_lookup ();
      secondaries;
      executions = [];
      reports = [];
      writes = [];
      failures = [];
      timer = None;
      decided = false;
      retry_round = 0;
      retry_timer = None }
  in
  Hashtbl.add t.shards.(shard).pending key p;
  if t.cfg.max_inflight <> None then Queue.push p t.admitted;
  p

let get_pending t taint =
  let key = Types.Taint.to_string taint in
  let shard = shard_of t key in
  match Hashtbl.find_opt t.shards.(shard).pending key with
  | Some p -> Some p
  | None ->
      if Types.Taint.is_external taint then None
        (* external triggers must be registered by the replicator; a
           stray tainted response after decision is dropped *)
      else
        Some
          (add_pending t ~key ~shard ~taint ~at:(Engine.now t.engine)
             ~primary:None ~secondaries:[])

let register_external t ~taint ~at ~primary ~secondaries =
  match t.pipeline with
  | Some h -> h.pl_register ~taint ~at ~primary ~secondaries
  | None ->
  let key = Types.Taint.to_string taint in
  let shard = shard_of t key in
  if not (Hashtbl.mem t.shards.(shard).pending key) then begin
    let p =
      add_pending t ~key ~shard ~taint ~at ~primary:(Some primary)
        ~secondaries
    in
    arm_timer t p;
    match t.cfg.retransmit with
    | Some rt when rt.max_retries > 0 && secondaries <> [] ->
        arm_retry t p rt
    | _ -> ()
  end

(* Mid-flight leadership change: the trigger's primary crashed and a
   new master will re-execute it under a later term. Instead of letting
   the pending record time out and blame the old primary, move the
   attribution to the new primary, stamp the new term, and restart the
   validation clock — the replicator re-drives the trigger, so fresh
   responses are on their way. *)
let reattribute t ~taint ~primary ~term =
  let key = Types.Taint.to_string taint in
  let shard = shard_of t key in
  match Hashtbl.find_opt t.shards.(shard).pending key with
  | Some p when not p.decided ->
      p.primary <- Some primary;
      p.term <- term;
      (match p.timer with Some h -> Engine.cancel h | None -> ());
      p.timer <- None;
      arm_timer t p;
      add t.shards.(shard) Reattributed 1;
      (let tr = Engine.trace t.engine in
       if Jury_obs.Trace.enabled tr then
         Jury_obs.Trace.point tr ~t_ns:(Engine.now_ns t.engine) ~taint:key
           ~phase:Jury_obs.Trace.Validate ~node:primary
           [ ("event", "reattributed"); ("term", string_of_int term) ]);
      true
  | _ -> false

let update_flow_mirror t (r : Response.t) =
  match r.body with
  | Response.Cache_update ev when ev.Event.cache = Names.flowsdb -> (
      match ev.Event.op with
      | Event.Delete -> Hashtbl.remove t.flow_mirror ev.Event.key
      | Event.Create | Event.Update -> (
          let key = ev.Event.key and value = ev.Event.value in
          match Hashtbl.find_opt t.flow_mirror key with
          | Some (v, _) when String.equal v value -> ()
          | _ -> (
              match Values.Flow.parse value with
              | Some fm -> Hashtbl.replace t.flow_mirror key (value, fm)
              | None -> ())))
  | _ -> ()

let deliver_inline t (r : Response.t) =
  (let tr = Engine.trace t.engine in
   if Jury_obs.Trace.enabled tr then
     Jury_obs.Trace.point tr ~t_ns:(Engine.now_ns t.engine)
       ~taint:(Types.Taint.to_string r.taint)
       ~phase:Jury_obs.Trace.Validate ~node:r.controller
       [ ("body", Response.body_name r.body) ]);
  List.iter (fun f -> f r) (List.rev t.response_observers);
  update_flow_mirror t r;
  match get_pending t r.taint with
  | None -> add t.shards.(shard_of t (Response.taint_key r)) Late 1
  | Some p ->
      if not (record p r) then add t.shards.(p.shard) Duplicate 1
      else begin
        (if p.primary = None then
           match Types.Taint.primary_of r.taint with
           | Some id -> p.primary <- Some id
           | None -> (
               (* Internal trigger: the origin is the primary actor. *)
               match r.body with
               | Response.Cache_update ev -> p.primary <- Some ev.Event.origin
               | Response.Execution { role = `Primary; _ }
               | Response.Write_failure _ ->
                   p.primary <- Some r.controller
               | _ -> ()));
        arm_timer t p;
        if complete t p then begin
          observe_completion_latency t
            (Time.sub (Engine.now t.engine) p.trigger_at);
          evaluate t p ~timed_out:false
        end
      end

(* Batched ingestion: one call delivers a whole simulated tick's worth
   of responses, partitioned per shard so each shard's table is touched
   once per batch. Responses keep their arrival order within a shard,
   so a per-event caller and a batching caller drive each shard's state
   machine through the same transitions. *)
let deliver t (r : Response.t) =
  match t.pipeline with
  | Some h -> h.pl_batch ~at:(Engine.now t.engine) [ r ]
  | None -> deliver_inline t r

let deliver_batch t rs =
  match (t.pipeline, rs) with
  | _, [] -> ()
  | Some h, rs -> h.pl_batch ~at:(Engine.now t.engine) rs
  | None, rs ->
      let n = Array.length t.shards in
      let per_shard = Array.make n [] in
      List.iter
        (fun (r : Response.t) ->
          let i = shard_of t (Response.taint_key r) in
          per_shard.(i) <- r :: per_shard.(i))
        rs;
      Array.iteri
        (fun i bucket ->
          match bucket with
          | [] -> ()
          | bucket ->
              let sh = t.shards.(i) in
              let size = List.length bucket in
              add sh Batch 1;
              add sh Batch_response size;
              (let tr = Engine.trace t.engine in
               if Jury_obs.Trace.enabled tr then
                 Jury_obs.Trace.global_point tr
                   ~t_ns:(Engine.now_ns t.engine)
                   ~phase:Jury_obs.Trace.Batch
                   [ ("shard", string_of_int i);
                     ("responses", string_of_int size) ]);
              List.iter (deliver_inline t) (List.rev bucket))
        per_shard

let verdicts t = List.rev t.verdicts
let alarms t = List.filter Alarm.is_fault (verdicts t)

let detection_times_ms t =
  verdicts t
  |> List.map (fun a -> Time.to_float_ms (Alarm.detection_time a))
  |> Array.of_list

(* A loop, not a fold: reading a counter allocates nothing. *)
let count ?shard t c =
  let i = Counter.index c in
  match shard with
  | Some s -> t.shards.(s).counts.(i)
  | None ->
      let total = ref 0 in
      for s = 0 to Array.length t.shards - 1 do
        total := !total + t.shards.(s).counts.(i)
      done;
      !total

let counters t = List.map (fun c -> (c, count t c)) Counter.all

let decided_count t = count t Decided
let fault_count t = count t Faulty
let batch_count t = count t Batch
let late_count t = count t Late
let duplicate_count t = count t Duplicate
let straggler_count t = count t Straggler
let current_epoch t = t.reg_count / t.epoch_length

(* --- staged-pipeline plumbing (see Stage) --- *)

let set_pipeline_hooks t h = t.pipeline <- Some h
let observe_mirror = update_flow_mirror
let shard_of_key t key = shard_of t key

let flush t =
  (match t.pipeline with
  | Some h ->
      (* Detach first: the stage merges its replicas back into [t] via
         {!absorb_pipeline_shard}, after which [t] answers result
         queries — and any further ingestion runs inline. *)
      t.pipeline <- None;
      h.pl_drain ~at:(Engine.now t.engine)
  | None -> ());
  (* Shard 0 first, each shard folded like the seed's single table,
     so [shards = 1] flushes in the historical order. *)
  Array.iter
    (fun sh ->
      let ps = Hashtbl.fold (fun _ p acc -> p :: acc) sh.pending [] in
      List.iter (fun p -> evaluate t p ~timed_out:true) ps)
    t.shards

let current_timeout_value = current_timeout

let absorb_pipeline_shard t ~shard src =
  let dst = t.shards.(shard) in
  let s = src.shards.(0) in
  (* Undecided triggers migrate so a later facade [flush] (or plain
     [pending_count]) sees exactly what the serial validator would:
     the replica's timers are dead with its engine, but flush-forced
     evaluation only reads the pending record. *)
  Hashtbl.iter
    (fun key p -> Hashtbl.replace dst.pending key { p with shard })
    s.pending;
  Array.iteri (fun i n -> dst.counts.(i) <- dst.counts.(i) + n) s.counts;
  t.reg_count <- t.reg_count + src.reg_count;
  t.verdicts <- src.verdicts @ t.verdicts

let finalize_pipeline_merge t =
  (* [t.verdicts] is newest-first; merge the per-replica streams into
     one deterministic newest-first order. Ties on [decided_at] (e.g.
     several decisions inside one batch tick) break by trigger time
     then taint, independent of shard interleaving. *)
  t.verdicts <-
    List.sort
      (fun (a : Alarm.t) (b : Alarm.t) ->
        match Time.compare b.Alarm.decided_at a.Alarm.decided_at with
        | 0 -> (
            match Time.compare b.Alarm.trigger_at a.Alarm.trigger_at with
            | 0 ->
                compare
                  (Types.Taint.to_string b.Alarm.taint)
                  (Types.Taint.to_string a.Alarm.taint)
            | c -> c)
        | c -> c)
      t.verdicts
