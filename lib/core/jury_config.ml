(* The sole construction path for deployment and validator configs:
   the pre-facade smart constructors were deleted (deprecated PR 4,
   removed PR 9), so their validation logic lives here and the records
   are built as literals. Documented in DESIGN.md ("Deprecation
   policy"). *)

open Jury_sim

(* Internal representation: the historical deployment record, so the
   facade adds no translation layer and `deployment` is the identity. *)
type t = Deployment.config

let retransmit ?(fraction = 0.4) ?(backoff = 2.0) ?(max_retries = 2) () =
  if not (fraction > 0. && fraction <= 1.) then
    invalid_arg "Jury_config.retransmit: fraction must be in (0, 1]";
  if not (backoff >= 1.) then
    invalid_arg "Jury_config.retransmit: backoff must be >= 1";
  if max_retries < 0 then
    invalid_arg "Jury_config.retransmit: max_retries must be >= 0";
  { Validator.fraction; backoff; max_retries }

let lossy_channel = Channel.lossy

let election ?(period = Time.ms 100) ?(timeout_beats = 3) () =
  if not Time.(period > zero) then
    invalid_arg "Jury_config.election: period must be positive";
  if timeout_beats < 1 then
    invalid_arg "Jury_config.election: timeout_beats must be >= 1";
  { Jury_controller.Cluster.period; timeout_beats }

let make ?(k = 2) ?timeout ?(adaptive_timeout = false) ?(state_aware = true)
    ?(nondet_rule = true) ?random_secondaries ?policies
    ?(encapsulation = false) ?channel ?drop ?duplicate ?jitter_us ?retransmit
    ?degraded_quorum ?(shards = 1) ?max_inflight ?batch
    ?(deterministic_latencies = false) ?election () =
  let below lo = Option.fold ~none:false ~some:(fun v -> v < lo) in
  let inline_channel = drop <> None || duplicate <> None || jitter_us <> None in
  (* Every range error at once, in one [Invalid_argument]. *)
  (match
     List.filter_map
       (fun (bad, msg) -> if bad then Some msg else None)
       [ (k < 0, "k must be >= 0");
         (shards < 1, "shards must be >= 1");
         (below 1 max_inflight, "max_inflight must be >= 1");
         ( Option.fold ~none:false ~some:(fun w -> not Time.(w > zero)) batch,
           "batch window must be positive" );
         (below 1 degraded_quorum, "degraded_quorum must be >= 1");
         ( Option.is_some channel && inline_channel,
           "pass either ~channel or ~drop/~duplicate/~jitter_us, not both" ) ]
   with
  | [] -> ()
  | errors -> invalid_arg ("Jury_config.make: " ^ String.concat "; " errors));
  let policies =
    match policies with Some p -> p | None -> Jury_policy.Engine.create []
  in
  (* Compile the policy set here, once, so the validator's per-response
     checks hit a warm decision structure (and so a config shared
     across worker domains shares a read-only compiled view instead of
     racing to build it). *)
  ignore (Jury_policy.Engine.compiled policies);
  let channel =
    match channel with
    | Some c -> c
    | None when inline_channel -> Channel.lossy ?drop ?duplicate ?jitter_us ()
    | None -> Channel.reliable
  in
  (* Deterministic latencies pin both out-of-band links to their base
     delays (and skip their RNG draws entirely) and replace randomly
     sampled secondaries with the static peer set — the replicator then
     consumes no randomness at all, which the schedule explorer's
     dependence relation relies on. *)
  let random_secondaries =
    if deterministic_latencies then false
    else Option.value random_secondaries ~default:true
  in
  let validator_jitter_us = if deterministic_latencies then 0. else 60. in
  let replication_jitter_us = if deterministic_latencies then 0. else 80. in
  let timeout =
    match timeout with
    | Some t -> t
    | None -> if encapsulation then Time.ms 800 else Time.ms 150
  in
  { Deployment.k;
    timeout;
    adaptive_timeout;
    state_aware;
    nondet_rule;
    random_secondaries;
    policies;
    validator_latency = Time.us 120;
    validator_jitter_us;
    replication_latency = Time.us 200;
    replication_jitter_us;
    chatter_cost = Time.us 13;
    chatter_bytes = 96;
    encapsulation;
    channel;
    retransmit;
    degraded_quorum;
    shards = Validator.shards_of_hint shards;
    max_inflight;
    batch_window = batch;
    election }

let deployment t = t

let validator ?(min_timeout = Time.ms 10) ?(master_lookup = fun _ -> None)
    ?(term_lookup = fun () -> 0) ?(ack_peers_of = fun _ -> []) (t : t) =
  { Validator.k = t.Deployment.k;
    timeout = t.Deployment.timeout;
    adaptive_timeout = t.Deployment.adaptive_timeout;
    min_timeout;
    state_aware = t.Deployment.state_aware;
    nondet_rule = t.Deployment.nondet_rule;
    policies = t.Deployment.policies;
    master_lookup;
    term_lookup;
    ack_peers_of;
    retransmit = t.Deployment.retransmit;
    degraded_quorum = t.Deployment.degraded_quorum;
    shards = Validator.shards_of_hint t.Deployment.shards;
    max_inflight = t.Deployment.max_inflight }

let install cluster t = Deployment.install cluster (deployment t)

let k (t : t) = t.Deployment.k
let timeout (t : t) = t.Deployment.timeout
let shards (t : t) = t.Deployment.shards
let max_inflight (t : t) = t.Deployment.max_inflight
let batch_window (t : t) = t.Deployment.batch_window
let channel (t : t) = t.Deployment.channel
let election_of (t : t) = t.Deployment.election
