(* The sole construction path for deployment and validator configs:
   [make] validates every knob and builds the one [Validator.config]
   literal in lib/; everything else copies it. *)

open Jury_sim

type t = Deployment.config

let retransmit ?(max_retries = 2) () =
  if max_retries < 0 then
    invalid_arg "Jury_config.retransmit: max_retries must be >= 0";
  { Validator.max_retries }

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let make ?(k = 2) ?timeout ?(adaptive_timeout = false) ?(state_aware = true)
    ?(nondet_rule = true) ?random_secondaries ?policies
    ?(encapsulation = false) ?drop ?duplicate ?jitter_us ?retransmit
    ?degraded_quorum ?(shards = 1) ?max_inflight ?batch
    ?(deterministic_latencies = false) ?election () =
  let below lo = Option.fold ~none:false ~some:(fun v -> v < lo) in
  let bad_period, bad_beats =
    match election with
    | Some { Jury_controller.Cluster.period; timeout_beats } ->
        (not Time.(period > zero), timeout_beats < 1)
    | None -> (false, false)
  in
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
         (bad_period, "election period must be positive");
         (bad_beats, "election timeout_beats must be >= 1") ]
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
  let channel = Channel.lossy ?drop ?duplicate ?jitter_us () in
  (* Deterministic latencies also replace randomly sampled secondaries
     with the static peer set, so the replicator consumes no randomness
     at all — which the schedule explorer's dependence relation relies
     on. *)
  let random_secondaries =
    (not deterministic_latencies)
    && Option.value random_secondaries ~default:true
  in
  let timeout =
    match timeout with
    | Some t -> t
    | None -> if encapsulation then Time.ms 800 else Time.ms 150
  in
  { Deployment.k;
    validator =
      { Validator.timeout;
        adaptive_timeout;
        state_aware;
        nondet_rule;
        policies;
        master_lookup = (fun _ -> None);
        term_lookup = (fun () -> 0);
        ack_peers_of = (fun _ -> []);
        retransmit;
        degraded_quorum;
        shards = next_pow2 shards;
        max_inflight };
    random_secondaries;
    deterministic_latencies;
    encapsulation;
    channel;
    batch_window = batch;
    election }

let validator ?ack_peers_of (t : t) =
  let v = t.Deployment.validator in
  { v with ack_peers_of = Option.value ack_peers_of ~default:v.ack_peers_of }

let install = Deployment.install
let timeout (t : t) = t.Deployment.validator.timeout
let shards (t : t) = t.Deployment.validator.shards
