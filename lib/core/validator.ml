open Jury_sim
module Types = Jury_controller.Types
module Event = Jury_store.Event
module Names = Jury_store.Cache_names
module Taint = Types.Taint

type retransmit = Decide.retransmit = { max_retries : int }

type config = Decide.config = {
  timeout : Time.t;
  adaptive_timeout : bool;
  state_aware : bool;
  nondet_rule : bool;
  policies : Jury_policy.Engine.t;
  master_lookup : Jury_openflow.Of_types.Dpid.t -> int option;
  term_lookup : unit -> int;
  ack_peers_of : int -> int list;
  retransmit : retransmit option;
  degraded_quorum : int option;
  shards : int;
  max_inflight : int option;
}

type pending = {
  input : Decide.input;  (* what the decision reads, filed by [Decide.record] *)
  shard : int;  (* owning shard, fixed by hash(taint) at creation *)
  epoch : int;  (* registration epoch, the unit [max_inflight] sheds *)
  trigger_at : Time.t;
  mutable timer : Engine.handle option;
  mutable decided : bool;
  mutable retry_round : int;
  mutable retry_timer : Engine.handle option;
}

(* One shard of verdict state: its own pending table, the retry
   timers of its pendings, and counters. Taints hash to a shard; with
   [shards = 1] everything lands in shard 0 and the data structures
   behave byte-for-byte like the historical flat table. *)
type shard = {
  pending : pending Taint.Table.t;
  counts : int array;  (* indexed by [Counter.index] *)
  decided_internal : Time.t Taint.Table.t;
  decided_order : (Taint.t * Time.t) Queue.t;
      (* Internal taints decided within the last validation timeout, and
         when, oldest first: a response for one of them is late, not a
         new trigger. Entries are dropped once their timeout has passed,
         so the table holds one timeout's worth of internal verdicts. *)
}

(* Hooks a staged-pipeline front end (Stage) installs on a validator:
   when set, registrations/deliveries/flushes are diverted to per-shard
   buffers instead of touching this validator's own state, and the
   pipeline merges its shard replicas back at [pl_drain]. *)
type pipeline_hooks = {
  pl_register :
    taint:Taint.t -> at:Time.t -> primary:int ->
    secondaries:int list -> unit;
  pl_batch : at:Time.t -> Response.t list -> unit;
  pl_drain : at:Time.t -> unit;
}

type t = {
  engine : Engine.t;
  cfg : config;
  shards : shard array;  (* length = cfg.shards, a power of two *)
  flow_mirror : Decide.mirror;
      (* Lets the sanity check accept a re-sent FLOW_MOD whose cache
         entry predates this trigger. Every replica reports the same
         update, so a rule is parsed only when a key's value changes,
         and the parse is kept on the reporting trigger, not here.
         Shared across shards: the mirror is FLOWSDB replica state, not
         per-trigger state. *)
  epoch_length : int;  (* registrations per epoch *)
  mutable reg_count : int;
  admitted : pending Queue.t;
      (* Under [max_inflight] only: every registered record in
         registration order. Each registration pops the decided ones off
         the front, so the queue never holds more than the registrations
         made since the oldest undecided trigger. *)
  mutable log : Verdict_log.t;  (* every verdict, four words for most *)
  mutable response_observers : (Response.t -> unit) list;
      (* in registration order, the order they run in *)
  mutable verdict_observers : (Alarm.t -> unit) list;
  mutable retransmit_handler : Taint.t -> secondary:int -> unit;
  (* Adaptive validation timeout (the paper's SVIII-1 extension): track
     recent completion latencies RTO-style and size theta-tau as
     srtt + 8*rttvar (see [current_timeout]), clamped to
     [min_timeout, cfg.timeout]. *)
  mutable srtt_ms : float;
  mutable rttvar_ms : float;
  mutable rtt_samples : int;
  mutable pipeline : pipeline_hooks option;
}

let make_shard () =
  { pending = Taint.Table.create 256;
    counts = Array.make Counter.cardinal 0;
    decided_internal = Taint.Table.create 16;
    decided_order = Queue.create () }

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
    log = Verdict_log.create ();
    response_observers = [];
    verdict_observers = [];
    retransmit_handler = (fun _ ~secondary:_ -> ());
    srtt_ms = Time.to_float_ms cfg.timeout /. 4.;
    rttvar_ms = Time.to_float_ms cfg.timeout /. 8.;
    rtt_samples = 0;
    pipeline = None }

let shard_count t = Array.length t.shards

let shard_of t taint =
  let n = Array.length t.shards in
  if n = 1 then 0 else Taint.hash taint land (n - 1)

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

(* The observer loops: with none registered they allocate nothing, where
   [List.iter (fun f -> f x)] would build its closure first. *)
let rec notify_response (r : Response.t) = function
  | [] -> ()
  | f :: rest ->
      f r;
      notify_response r rest

let rec notify_verdict (a : Alarm.t) = function
  | [] -> ()
  | f :: rest ->
      f a;
      notify_verdict a rest

let set_retransmit_handler t f = t.retransmit_handler <- f
let on_response t f = t.response_observers <- t.response_observers @ [ f ]
let on_verdict t f = t.verdict_observers <- t.verdict_observers @ [ f ]

(* --- Acting on a decision --- *)

(* Whether internal [taint] was decided no longer than one validation
   timeout ago. The time test, not the table's pruning, decides, so the
   answer never depends on when entries are dropped. *)
let recently_decided t sh taint =
  match Taint.Table.find_opt sh.decided_internal taint with
  | Some at -> Time.(Engine.now t.engine <= add at t.cfg.timeout)
  | None -> false

let remember_decided t sh taint =
  let now = Engine.now t.engine in
  let rec forget () =
    match Queue.peek_opt sh.decided_order with
    | Some (k, at) when Time.(now > add at t.cfg.timeout) ->
        ignore (Queue.pop sh.decided_order);
        (* A taint forgotten once and decided again has a newer entry. *)
        (match Taint.Table.find_opt sh.decided_internal k with
        | Some last when Time.equal last at ->
            Taint.Table.remove sh.decided_internal k
        | _ -> ());
        forget ()
    | _ -> ()
  in
  forget ();
  Taint.Table.replace sh.decided_internal taint now;
  Queue.push (taint, now) sh.decided_order

let trace_verdict t tr (a : Alarm.t) ~stragglers =
  let taint = Taint.to_string a.taint in
  let t_ns = Engine.now_ns t.engine in
  let attrs =
    [ ("verdict", Alarm.verdict_name a.verdict);
      ("detection_ms",
       Printf.sprintf "%.3f" (Time.to_float_ms (Alarm.detection_time a)));
      ("suspects", String.concat "," (List.map string_of_int a.suspects)) ]
  in
  let attrs =
    if stragglers = [] then attrs
    else
      ("stragglers", String.concat "," (List.map string_of_int stragglers))
      :: attrs
  in
  let attrs =
    if a.term > 0 then ("term", string_of_int a.term) :: attrs else attrs
  in
  Jury_obs.Trace.point tr ~t_ns ~taint ~phase:Jury_obs.Trace.Verdict
    ?node:a.primary
    (if a.detail = "" then attrs else ("detail", a.detail) :: attrs);
  Jury_obs.Trace.close_root tr ~t_ns ~taint
    [ ("verdict", Alarm.verdict_name a.verdict) ]

let finish t p ({ verdict; suspects; detail } : Decide.decision) =
  let d = p.input in
  let sh = t.shards.(p.shard) in
  p.decided <- true;
  Option.iter Engine.cancel p.timer;
  Option.iter Engine.cancel p.retry_timer;
  p.retry_timer <- None;
  let stragglers = Decide.stragglers d in
  add sh Straggler (List.length stragglers);
  Taint.Table.remove sh.pending d.taint;
  if not (Taint.is_external d.taint) then remember_decided t sh d.taint;
  let decided_at = Engine.now t.engine in
  let primary = d.primary in
  let suspects = List.sort_uniq compare suspects in
  Verdict_log.push t.log ~taint:d.taint ~trigger_at:p.trigger_at ~decided_at
    ~primary ~suspects ~term:d.term ~verdict ~detail;
  add sh Decided 1;
  (match verdict with
  | Alarm.Faulty _ -> add sh Faulty 1
  | Alarm.Ok_unverifiable -> add sh Unverifiable 1
  | Alarm.Ok_degraded -> add sh Degraded 1
  | Alarm.Overload -> add sh Overload 1
  | Alarm.Ok_valid | Alarm.Ok_non_deterministic -> ());
  (* The log keeps no alarm record: one is built only to be shown. *)
  let tr = Engine.trace t.engine in
  let shown =
    match t.verdict_observers with
    | [] -> Jury_obs.Trace.enabled tr
    | _ :: _ -> true
  in
  if shown then begin
    let alarm =
      { Alarm.taint = d.taint; trigger_at = p.trigger_at; decided_at; primary;
        suspects; term = d.term; verdict; detail }
    in
    if Jury_obs.Trace.enabled tr then trace_verdict t tr alarm ~stragglers;
    notify_verdict alarm t.verdict_observers
  end

let evaluate t p ~timed_out =
  if not p.decided then
    match Decide.verdict t.cfg ~mirror:t.flow_mirror p.input ~timed_out with
    | Some d -> finish t p d
    | None -> () (* keep waiting *)

(* A trigger-scoped event: decides/updates only this trigger's entry
   (shard counters it bumps are commutative). The two per-validator
   couplings that break that — the adaptive-timeout estimator, which
   every decision feeds and every later timer reads, and the
   [max_inflight] admission queue, where one verdict releases the next
   queued trigger — force the conservative opaque footprint instead. *)
let trigger_footprint (cfg : config) taint =
  if cfg.adaptive_timeout || cfg.max_inflight <> None then Footprint.opaque
  else Footprint.touches [ Footprint.trigger (Taint.hash taint) ]

let entry_footprint t (p : pending) = trigger_footprint t.cfg p.input.taint

(* A fixed θτ puts every timer the same delay ahead, so they share a
   fixed-delay lane; an adaptive one varies per trigger. *)
let arm_timer t p =
  if p.timer = None then begin
    let footprint = entry_footprint t p and after = current_timeout t in
    let fire () = evaluate t p ~timed_out:true in
    p.timer <-
      Some
        (if t.cfg.adaptive_timeout then
           Engine.schedule t.engine ~footprint ~after fire
         else Engine.schedule_fixed t.engine ~footprint ~after fire)
  end

(* --- Bounded retransmission with exponential backoff --- *)

(* The first retry fires after 0.4·θτ; each later one waits twice as
   long as the one before. *)
let retry_fraction = 0.4
let retry_backoff = 2.0

let retry_delay t round =
  let theta = Time.to_float_ms (current_timeout t) in
  Time.of_float_ms
    (theta *. retry_fraction *. (retry_backoff ** float_of_int round))

let rec arm_retry t p rt =
  p.retry_timer <-
    Some
      (Engine.schedule t.engine
         ~after:(retry_delay t p.retry_round)
         (fun () -> fire_retry t p rt))

and fire_retry t p (rt : retransmit) =
  let sh = t.shards.(p.shard) in
  p.retry_timer <- None;
  if not p.decided then begin
    match Decide.stragglers p.input with
    | [] -> () (* everyone answered; no more retries needed *)
    | missing ->
        List.iter
          (fun secondary ->
            add sh Retransmit 1;
            t.retransmit_handler p.input.taint ~secondary)
          missing;
        p.retry_round <- p.retry_round + 1;
        if p.retry_round < rt.max_retries then arm_retry t p rt
  end

(* --- The in-flight high-water mark --- *)

let pending_count ?shard t =
  match shard with
  | Some s -> Taint.Table.length t.shards.(s).pending
  | None ->
      Array.fold_left
        (fun acc sh -> acc + Taint.Table.length sh.pending)
        0 t.shards

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
      if not p.decided then
        finish t p { verdict = Alarm.Overload; suspects = []; detail })
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

let add_pending t ~shard ~taint ~at ~primary ~secondaries =
  (match t.cfg.max_inflight with Some m -> enforce_inflight t m | None -> ());
  t.reg_count <- t.reg_count + 1;
  let p =
    { input =
        { taint; primary; term = t.cfg.term_lookup (); secondaries;
          executions = []; reports = []; writes = []; failures = [] };
      shard;
      epoch = t.reg_count / t.epoch_length;
      trigger_at = at;
      timer = None;
      decided = false;
      retry_round = 0;
      retry_timer = None }
  in
  Taint.Table.add t.shards.(shard).pending taint p;
  if t.cfg.max_inflight <> None then Queue.push p t.admitted;
  p

let register_external t ~taint ~at ~primary ~secondaries =
  match t.pipeline with
  | Some h -> h.pl_register ~taint ~at ~primary ~secondaries
  | None ->
  let shard = shard_of t taint in
  if not (Taint.Table.mem t.shards.(shard).pending taint) then begin
    let p =
      add_pending t ~shard ~taint ~at ~primary:(Some primary)
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
  let shard = shard_of t taint in
  match Taint.Table.find_opt t.shards.(shard).pending taint with
  | Some p when not p.decided ->
      p.input.primary <- Some primary;
      p.input.term <- term;
      (match p.timer with Some h -> Engine.cancel h | None -> ());
      p.timer <- None;
      arm_timer t p;
      add t.shards.(shard) Reattributed 1;
      (let tr = Engine.trace t.engine in
       if Jury_obs.Trace.enabled tr then
         Jury_obs.Trace.point tr ~t_ns:(Engine.now_ns t.engine)
           ~taint:(Taint.to_string taint) ~phase:Jury_obs.Trace.Validate
           ~node:primary
           [ ("event", "reattributed"); ("term", string_of_int term) ]);
      true
  | _ -> false

(* Files a FLOWSDB update in the mirror, and returns the rule the
   mirror parsed from its value, if it parsed one. *)
let update_flow_mirror t (r : Response.t) =
  match r.body with
  | Response.Cache_update ({ cache = Names.Flowsdb; _ } as ev) -> (
      match ev.Event.op with
      | Event.Delete ->
          Hashtbl.remove t.flow_mirror ev.Event.key;
          None
      | Event.Create | Event.Update ->
          Decide.mirror_write t.flow_mirror ev.Event.key ev.Event.value)
  | _ -> None

(* File [r] in its trigger's record, with the [rule] the mirror parsed
   from it, and decide the trigger once its response set is complete. *)
let file t p ?rule (r : Response.t) =
  if not (Decide.record p.input ?rule r) then add t.shards.(p.shard) Duplicate 1
  else begin
    (if p.input.primary = None then
       match Taint.primary_of r.taint with
       | Some id -> p.input.primary <- Some id
       | None -> (
           (* Internal trigger: the origin is the primary actor. *)
           match r.body with
           | Response.Cache_update ev -> p.input.primary <- Some ev.Event.origin
           | Response.Execution { role = `Primary; _ }
           | Response.Write_failure _ ->
               p.input.primary <- Some r.controller
           | _ -> ()));
    arm_timer t p;
    if Decide.complete t.cfg p.input then begin
      observe_completion_latency t
        (Time.sub (Engine.now t.engine) p.trigger_at);
      evaluate t p ~timed_out:false
    end
  end

let deliver_inline t (r : Response.t) =
  (let tr = Engine.trace t.engine in
   if Jury_obs.Trace.enabled tr then
     Jury_obs.Trace.point tr ~t_ns:(Engine.now_ns t.engine)
       ~taint:(Taint.to_string r.taint)
       ~phase:Jury_obs.Trace.Validate ~node:r.controller
       [ ("body", Response.body_name r.body) ]);
  notify_response r t.response_observers;
  let rule = update_flow_mirror t r in
  let shard = shard_of t r.taint in
  let sh = t.shards.(shard) in
  match Taint.Table.find sh.pending r.taint with
  | p -> file t p ?rule r
  | exception Not_found ->
      (* External triggers must be registered by the replicator, and an
         internal one is opened by its first response; a stray tainted
         response after the verdict is late. *)
      if Taint.is_external r.taint || recently_decided t sh r.taint then
        add sh Late 1
      else
        file t
          (add_pending t ~shard ~taint:r.taint ~at:(Engine.now t.engine)
             ~primary:None ~secondaries:[])
          ?rule r

(* Batched ingestion: one call delivers a whole simulated tick's worth
   of responses, partitioned per shard so each shard's table is touched
   once per batch. Responses keep their arrival order within a shard,
   so a per-event caller and a batching caller drive each shard's state
   machine through the same transitions. *)
let deliver t (r : Response.t) =
  match t.pipeline with
  | Some h -> h.pl_batch ~at:(Engine.now t.engine) [ r ]
  | None -> deliver_inline t r

let rec deliver_all t = function
  | [] -> ()
  | r :: rest ->
      deliver_inline t r;
      deliver_all t rest

(* One shard's non-empty share of a batch, in arrival order. *)
let deliver_shard t i rs =
  let sh = t.shards.(i) in
  let size = List.length rs in
  add sh Batch 1;
  add sh Batch_response size;
  (let tr = Engine.trace t.engine in
   if Jury_obs.Trace.enabled tr then
     Jury_obs.Trace.global_point tr ~t_ns:(Engine.now_ns t.engine)
       ~phase:Jury_obs.Trace.Batch
       [ ("shard", string_of_int i); ("responses", string_of_int size) ]);
  deliver_all t rs

let deliver_batch t rs =
  match (t.pipeline, rs) with
  | _, [] -> ()
  | Some h, rs -> h.pl_batch ~at:(Engine.now t.engine) rs
  | None, rs when Array.length t.shards = 1 -> deliver_shard t 0 rs
  | None, rs ->
      let per_shard = Array.make (Array.length t.shards) [] in
      List.iter
        (fun (r : Response.t) ->
          let i = shard_of t r.taint in
          per_shard.(i) <- r :: per_shard.(i))
        rs;
      Array.iteri
        (fun i bucket ->
          if bucket <> [] then deliver_shard t i (List.rev bucket))
        per_shard

let verdicts t = Verdict_log.to_list t.log
let fold_since t = Verdict_log.fold_since t.log
let alarms t = Verdict_log.faults t.log

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
let observe_mirror t r = ignore (update_flow_mirror t r)
let shard_of_taint = shard_of

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
      let ps = Taint.Table.fold (fun _ p acc -> p :: acc) sh.pending [] in
      List.iter (fun p -> evaluate t p ~timed_out:true) ps)
    t.shards

let mirror_words t = Obj.reachable_words (Obj.repr t.flow_mirror)

let pending_words t =
  let inputs = ref [] and records = ref 0 and n = ref 0 in
  Array.iter
    (fun sh ->
      Taint.Table.iter
        (fun _ p ->
          inputs := p.input :: !inputs;
          records := !records + Obj.size (Obj.repr p) + 1;
          incr n)
        sh.pending)
    t.shards;
  (* Less the list's own cons cells, three words each. *)
  !records + Obj.reachable_words (Obj.repr !inputs) - (3 * !n)

let current_timeout_value = current_timeout

let absorb_pipeline_shard t ~shard src =
  let dst = t.shards.(shard) in
  let s = src.shards.(0) in
  (* Undecided triggers migrate so a later facade [flush] (or plain
     [pending_count]) sees exactly what the serial validator would:
     the replica's timers are dead with its engine, but flush-forced
     evaluation only reads the pending record. *)
  Taint.Table.iter
    (fun taint p -> Taint.Table.replace dst.pending taint { p with shard })
    s.pending;
  Taint.Table.iter
    (Taint.Table.replace dst.decided_internal)
    s.decided_internal;
  Queue.transfer s.decided_order dst.decided_order;
  Array.iteri (fun i n -> dst.counts.(i) <- dst.counts.(i) + n) s.counts;
  t.reg_count <- t.reg_count + src.reg_count;
  Verdict_log.append t.log src.log

let finalize_pipeline_merge t =
  (* Merge the per-replica streams into one deterministic decision
     order. Ties on [decided_at] (e.g. several decisions inside one
     batch tick) break by trigger time then taint, independent of shard
     interleaving; the sort is stable, so full ties keep absorb order. *)
  t.log <-
    Verdict_log.of_list
      (List.stable_sort
         (fun (a : Alarm.t) (b : Alarm.t) ->
           match Time.compare a.decided_at b.decided_at with
           | 0 -> (
               match Time.compare a.trigger_at b.trigger_at with
               | 0 -> Taint.compare a.taint b.taint
               | c -> c)
           | c -> c)
         (Verdict_log.to_list t.log))
