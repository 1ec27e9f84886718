(* DESIGN.md's "The decision rule" over the raw arrivals, every list
   derived afresh. "Beyond §IV" marks each departure from the paper. *)

open Jury
module Types = Jury_controller.Types
module Flow = Jury_controller.Values.Flow
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Of_message = Jury_openflow.Of_message
module Dpid = Jury_openflow.Of_types.Dpid

type trigger = {
  taint : Types.Taint.t;
  primary : int option;
  secondaries : int list;
  arrivals : Response.t list;
}

type decision = { verdict : Alarm.verdict; suspects : int list }

(* The first of each class of [same], in order. *)
let firsts same =
  List.fold_left (fun kept x ->
      if List.exists (same x) kept then kept else kept @ [ x ]) []

let duplicate ~earlier (r : Response.t) =
  earlier
  |> List.exists (fun (e : Response.t) ->
         e.controller = r.controller
         &&
         match (e.body, r.body) with
         | Execution a, Execution b -> a.role = b.role
         | a, b -> a = b)

let pick f t =
  List.filter_map f (firsts (fun r e -> duplicate ~earlier:[ e ] r) t.arrivals)

let executions t role =
  t |> pick (fun (r : Response.t) -> match r.body with
      | Execution e when e.role = role -> Some (r, e.actions) | _ -> None)

let stragglers t =
  let answered s (r, _) = r.Response.controller = s in
  let execs = executions t `Secondary in
  List.filter (fun s -> not (List.exists (answered s) execs)) t.secondaries

let same_event (e : Event.t) (e' : Event.t) =
  e.origin = e'.origin && e.seq = e'.seq

let is_flowsdb : Names.t -> bool = function Names.Flowsdb -> true | _ -> false

(* A rule is its switch, match and priority; a flow adds actions and
   command. Buffer ids differ between executions: never compared. *)
let same_rule d (a : Of_message.flow_mod) d' (b : Of_message.flow_mod) =
  Dpid.equal d d'
  && Jury_openflow.Of_match.equal a.fm_match b.fm_match
  && a.priority = b.priority

let same_flow d (a : Of_message.flow_mod) d' (b : Of_message.flow_mod) =
  same_rule d a d' b
  && Jury_openflow.Of_action.equal_list a.actions b.actions
  && a.command = b.command

let entry key value =
  match (Flow.dpid_of_key key, Flow.parse value) with
  | Some d, Some fm -> Some (d, fm) | _ -> None

(* A plan as a multiset of actions, buffer ids erased. *)
let fingerprint plan =
  let erase fm = { fm with Of_message.fm_buffer_id = None } in
  let canonical : Types.action -> Types.action = function
    | Network_send { dpid; payload = Flow_mod fm } ->
        Network_send { dpid; payload = Flow_mod (erase fm) }
    | Network_send { dpid; payload = Packet_out po } ->
        Network_send
          { dpid; payload = Packet_out { po with po_buffer_id = None } }
    | Cache_write w when is_flowsdb w.cache -> (
        match Flow.parse w.value with
        | Some fm -> Cache_write { w with value = Flow.value (erase fm) }
        | None -> Cache_write w)
    | a -> a
  in
  List.sort compare
    (List.map (fun a -> Types.action_fingerprint (canonical a)) plan)

(* Each distinct plan, as first taken, with its votes, in the order it
   was first taken: the order ties go by. *)
let tally plans =
  let same p q = fingerprint p = fingerprint q in
  firsts same plans
  |> List.map (fun p -> (p, List.length (List.filter (same p) plans)))

type finding = { fault : Alarm.fault; blamed : int list; excusable : bool }

let hard fault blamed = { fault; blamed; excusable = false }
let omission o = { (hard Response_timeout [ o ]) with excusable = true }
let ok verdict = { verdict; suspects = [] }

let faulty findings =
  let all f = List.sort_uniq compare (List.concat_map f findings) in
  { verdict = Faulty (all (fun f -> [ f.fault ]));
    suspects = all (fun f -> f.blamed) }

type votes = Agrees of int | Disagrees of int list | Nondet | Unverifiable

let decide (cfg : Decide.config) ~(mirror : Decide.mirror) t ~timed_out =
  let external_ = Types.Taint.is_external t.taint in
  (* A stray, a Secondary execution from an unlisted controller, neither
     completes the trigger nor votes. *)
  let listed ((r : Response.t), _) = List.mem r.controller t.secondaries in
  let secondaries = List.filter listed (executions t `Secondary) in
  let reports =
    t |> pick (fun r ->
        match r.body with Cache_update e -> Some (r.controller, e) | _ -> None)
  in
  let events = firsts (fun a b -> same_event (snd a) (snd b)) reports in
  let events = List.map snd events in
  let writes =
    t |> pick (fun r -> match r.body with
        | Network_write w -> Some (r.controller, w.dpid, w.flow) | _ -> None)
    |> firsts (fun (_, d, f) (_, d', f') ->
           Dpid.equal d d' && Flow.value f = Flow.value f')
  in
  let failed =
    t |> pick (fun r ->
        match r.body with Write_failure _ -> Some r.controller | _ -> None)
  in
  let observed ~origin cache key =
    events |> List.find_opt (fun (e : Event.t) ->
        Names.equal e.cache cache && e.key = key && e.origin = origin)
  in
  (* Beyond §IV: a reinstall is backed by the mirror. *)
  let mirrored d (fm : Of_message.flow_mod) =
    let key = Flow.key d fm.fm_match ~priority:fm.priority in
    match Option.bind (Hashtbl.find_opt mirror key) Flow.parse with
    | Some held -> same_flow d held d fm
    | None -> false
  in
  let complete ~origin plan =
    let acker e (c, e') = c <> origin && same_event e e' in
    let ackers e = List.map fst (List.filter (acker e) reports) in
    let acks e = List.length (firsts ( = ) (ackers e)) in
    let seen : Types.action -> bool = function
      | Cache_write { cache; key; _ } -> (
          match observed ~origin cache key with
          | Some e -> acks e >= List.length (cfg.ack_peers_of origin)
          | None -> false)
      | Network_send { dpid; payload = Flow_mod fm } ->
          writes |> List.exists (fun (_, d, w) ->
              same_rule d w dpid fm && w.command = fm.command)
      | Network_send _ -> true
    in
    List.length secondaries >= List.length t.secondaries
    && List.for_all seen plan
  in
  let consensus (prim : Response.t) plan =
    let votes =
      secondaries |> List.filter_map (fun ((r : Response.t), p) ->
          if cfg.state_aware && not (Snapshot.equal r.snapshot prim.snapshot)
          then None
          else Some (r.controller, fingerprint p))
    in
    let mine = fingerprint plan in
    let all = mine :: List.map snd votes in
    let count fp = List.length (List.filter (( = ) fp) all) in
    let majority fp = 2 * count fp > List.length all in
    match List.filter (fun (_, fp) -> fp <> mine) votes with
    | _ when votes = [] && t.secondaries = [] -> Agrees 1
    | _ when votes = [] -> Unverifiable
    | _ when cfg.nondet_rule && List.length all >= 3
             && List.for_all (fun fp -> count fp = 1) all -> Nondet
    | [] when majority mine -> Agrees (List.length all)
    | dissent when majority mine -> Disagrees (List.map fst dissent)
    | _ when List.exists majority all -> Disagrees [ prim.controller ]
    | _ -> Unverifiable
  in
  (* Beyond §IV: installs only; deletes are never compared. *)
  let sanity ~origin ~plan =
    let cached =
      events |> List.filter_map (fun (e : Event.t) ->
          if is_flowsdb e.cache && e.origin = origin && e.op <> Delete
          then entry e.key e.value
          else None)
    in
    let wire =
      writes |> List.filter (fun (_, _, (w : Of_message.flow_mod)) ->
          w.command <> Delete && w.command <> Delete_strict)
    in
    let planned fault (a : Types.action) =
      match (fault, a) with
      | Alarm.Cache_without_network, Network_send { dpid; payload = Flow_mod p }
        -> Some (dpid, p)
      | Network_without_cache, Cache_write w when is_flowsdb w.cache ->
          entry w.key w.value
      | _ -> None
    in
    let found fault d fm =
      let planned = List.filter_map (planned fault) plan in
      if List.exists (fun (d', p) -> same_flow d' p d fm) planned then
        omission origin
      else hard fault [ origin ]
    in
    let on_wire same d fm =
      List.exists (fun (_, d', w) -> same d fm d' w) wire
    in
    (cached |> List.filter_map (fun (d, fm) ->
         if not (on_wire same_rule d fm) then
           Some (found Cache_without_network d fm)
         else if not (on_wire same_flow d fm) then
           Some (hard Cache_network_mismatch [ origin ])
         else None))
    @ (wire |> List.filter_map (fun (_, d, w) ->
           let held (d', fm) = same_rule d w d' fm in
           if List.exists held cached || mirrored d w then None
           else Some (found Network_without_cache d w)))
  in
  let policy ~origin plan =
    plan |> List.filter_map (function
      | Types.Network_send _ -> None
      | Cache_write { cache; op; key; value } -> (
          let elsewhere d = cfg.master_lookup d <> Some origin in
          let remote =
            Option.fold ~none:false ~some:elsewhere (Flow.dpid_of_key key)
          in
          match
            Jury_policy.Engine.check cfg.policies
              { q_controller = origin; q_cache = cache;
                q_trigger = (if external_ then `External else `Internal);
                q_op = op; q_key = key; q_value = value;
                q_destination =
                  (if is_flowsdb cache && remote then `Remote else `Local) }
          with
          | Denied r -> Some (hard (Policy_violation r.name) [ origin ])
          | Allowed -> None))
  in
  (* Beyond §IV: the degraded quorum for a lost primary. The plan with
     the most votes in one view; a tie goes to the view that answered
     first, then to the plan first taken. *)
  let vouched () =
    let snapshot ((r : Response.t), _) = r.snapshot in
    let same_view a b = Snapshot.equal (snapshot a) (snapshot b) in
    let view r = List.map snd (List.filter (same_view r) secondaries) in
    let views =
      if cfg.state_aware then List.map view (firsts same_view secondaries)
      else [ List.map snd secondaries ]
    in
    match (cfg.degraded_quorum, List.concat_map tally views) with
    | Some q, first :: rest ->
        let most (p, m) (p', n) = if n > m then (p', n) else (p, m) in
        let plan, n = List.fold_left most first rest in
        external_ && failed = [] && n >= q
        && policy ~origin:(Option.value t.primary ~default:(-1)) plan = []
    | _ -> false
  in
  let judge (prim : Response.t) plan =
    let origin = prim.controller in
    let votes = if external_ then consensus prim plan else Agrees 0 in
    let dissent = match votes with Disagrees ds -> ds | _ -> [] in
    (* Beyond §IV: at the timer a degraded quorum excuses omissions. *)
    let degraded = timed_out && external_ && cfg.degraded_quorum <> None in
    let findings =
      List.map (fun c -> hard Response_timeout [ c ]) failed
      @ (plan |> List.filter_map (function
          | Types.Cache_write { cache; key; _ }
            when timed_out && failed = []
                 && observed ~origin cache key = None ->
              Some (omission origin)
          | _ -> None))
      @ (if dissent = [] then [] else [ hard Consensus_mismatch dissent ])
      @ sanity ~origin ~plan:(if degraded then plan else [])
      @ policy ~origin plan
    in
    let excused =
      match (votes, cfg.degraded_quorum) with
      | Agrees n, Some q ->
          degraded && n >= q && List.for_all (fun f -> f.excusable) findings
      | _ -> false
    in
    match votes with
    | _ when findings <> [] && not excused -> faulty findings
    | Nondet -> ok Ok_non_deterministic
    | Unverifiable -> ok Ok_unverifiable
    | _ when excused && (findings <> [] || stragglers t <> []) ->
        ok Ok_degraded
    | Agrees _ | Disagrees _ -> ok Ok_valid
  in
  let stray = List.filter (fun (_, d, w) -> not (mirrored d w)) writes in
  let mine ((r : Response.t), _) = Some r.controller = t.primary in
  match List.find_opt mine (executions t `Primary) with
  | Some (p, plan) when timed_out || complete ~origin:p.controller plan ->
      Some (judge p plan)
  | _ when not timed_out -> None
  | None when stray <> [] ->
      let senders = List.map (fun (s, _, _) -> s) stray in
      Some (faulty [ hard Network_without_cache senders ])
  | None when vouched () -> Some (ok Ok_degraded)
  | _ -> Some (faulty [ hard Response_timeout (Option.to_list t.primary) ])
