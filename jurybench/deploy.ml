(* Deployment workloads: a seven-node controller cluster with JURY
   installed, driven by an open-loop traffic mix, measured from the
   first arrival to the end of a drain window.

   An episode ends on a sentinel event scheduled at set-up; both passes
   stop right after it runs, so the untraced and the traced pass
   execute exactly the same events and leave the same state behind. *)

open Jury_sim
module Setup = Jury_experiments.Setup
module Profile = Jury_controller.Profile
module Cluster = Jury_controller.Cluster
module Controller = Jury_controller.Controller
module Pipeline = Jury_controller.Pipeline
module Taint = Jury_controller.Types.Taint
module Injector = Jury_faults.Injector
module Validator = Jury.Validator
module Deployment = Jury.Deployment
module Channel = Jury.Channel
module Alarm = Jury.Alarm
module Fabric = Jury_store.Fabric
module Network = Jury_net.Network
module Switch = Jury_net.Switch
module Host = Jury_net.Host

type spec = {
  profile : Profile.t;
  k : int;
  faulty : int list;  (** timing-faulty replicas: 25 ms slow, 5% omission *)
  rate : float;       (** target PACKET_IN/s of the mix *)
  load : Time.t;      (** arrival window *)
  drain : Time.t;     (** quiet window after it *)
  jury : Jury.Jury_config.t;
}

(* Counters read at the start and end of the measured window. *)
type tally = {
  channel : Channel.stats;
  batches : int;
  late : int;
  duplicates : int;
  stragglers : int;
  replication_bytes : int;
  validator_bytes : int;
  store_events : int;
  store_bytes : int;
  dataplane_bytes : int;
  pipeline_dropped : int;
}

type episode = {
  spec : spec;
  env : Setup.env;
  deployment : Deployment.t;
  validator : Validator.t;
  t0 : Time.t;
  load_end : Time.t;
  triggers0 : int;
  events0 : int;
  tally0 : tally;
  mutable triggers_at_load_end : int;
  mutable sentinel : int option;  (** events executed when it ran *)
}

let controllers ep = Cluster.controllers ep.env.Setup.cluster

let tally (env : Setup.env) d =
  let v = Deployment.validator d in
  let fabric = Cluster.fabric env.Setup.cluster in
  { channel = Deployment.channel_totals d;
    batches = Validator.batch_count v;
    late = Validator.late_count v;
    duplicates = Validator.duplicate_count v;
    stragglers = Validator.straggler_count v;
    replication_bytes = Deployment.replication_bytes d;
    validator_bytes = Deployment.validator_bytes d;
    store_events = Fabric.events_applied fabric;
    store_bytes = Fabric.bytes_replicated fabric;
    dataplane_bytes = Network.data_plane_bytes env.Setup.network;
    pipeline_dropped =
      Array.fold_left
        (fun acc c -> acc + Pipeline.dropped (Controller.pipeline c))
        0 (Cluster.controllers env.Setup.cluster) }

(* Set-up: build, converge and settle the cluster (Setup.make), inject
   the faults, and schedule the whole mix plus the two marker events.
   Nothing here is timed as part of the episode. *)
let setup spec ~seed =
  let env =
    Setup.make ~seed ~jury:spec.jury ~profile:spec.profile ~nodes:7 ()
  in
  let deployment = Option.get env.Setup.deployment in
  List.iter
    (fun node ->
      Injector.make_slow env.Setup.cluster ~node ~delay:(Time.ms 25);
      Injector.make_lossy env.Setup.cluster ~node ~omit_probability:0.05)
    spec.faulty;
  let engine = env.Setup.engine in
  let t0 = Engine.now engine in
  let load_end = Time.add t0 spec.load in
  let ep =
    { spec;
      env;
      deployment;
      validator = Deployment.validator deployment;
      t0;
      load_end;
      triggers0 = Deployment.replicated_trigger_count deployment;
      events0 = Engine.executed_events engine;
      tally0 = tally env deployment;
      triggers_at_load_end = 0;
      sentinel = None }
  in
  ignore
    (Engine.schedule_at engine ~at:load_end (fun () ->
         ep.triggers_at_load_end <-
           Deployment.replicated_trigger_count deployment));
  ignore
    (Engine.schedule_at engine ~at:(Time.add load_end spec.drain) (fun () ->
         ep.sentinel <- Some (Engine.executed_events engine)));
  Mixes.steady env.Setup.network ~rng:env.Setup.rng ~packet_in_rate:spec.rate
    ~duration:spec.load;
  ep

let finished ep () = ep.sentinel <> None

(* The untraced pass: [Engine.run] up to just before the sentinel, then
   single steps until it has run. Returns wall ns and GC counts. *)
let run_untraced ep =
  let engine = ep.env.Setup.engine in
  let stop = Time.add ep.load_end ep.spec.drain in
  let gc0 = Measure.gc_now () in
  let a = Measure.now_ns () in
  Engine.run engine ~until:(Time.sub stop (Time.ns 1));
  while ep.sentinel = None do ignore (Engine.step engine) done;
  let wall_ns = Measure.now_ns () - a in
  (wall_ns, Measure.gc_diff gc0 (Measure.gc_now ()))

(* --- What the episode produced --- *)

type outcome = {
  attempted : int;  (** external triggers intercepted in the load window *)
  failed : int;     (** of those: no verdict by the sentinel, or Overload *)
  decided : int;    (** verdicts decided in the measured window *)
  detect_ms : float array;  (** detection times of those verdicts *)
  at_timeout : int;  (** of those: decided by the validation timer *)
  false_alarms : int;  (** faulty verdicts blaming no injected replica *)
  digest : string;
  events : int;     (** events executed up to and including the sentinel *)
}

let outcome ep =
  let verdicts =
    Validator.verdicts ep.validator
    |> List.filter (fun (a : Alarm.t) -> Time.(a.decided_at >= ep.t0))
  in
  let attempted = ep.triggers_at_load_end - ep.triggers0 in
  let answered =
    List.length
      (List.filter
         (fun (a : Alarm.t) ->
           Taint.is_external a.taint
           && Time.(a.trigger_at >= ep.t0 && a.trigger_at < ep.load_end)
           && a.verdict <> Alarm.Overload)
         verdicts)
  in
  let timeout = Jury.Jury_config.timeout ep.spec.jury in
  let at_timeout =
    List.length
      (List.filter
         (fun a -> Time.(Alarm.detection_time a >= timeout))
         verdicts)
  in
  let false_alarms =
    List.length
      (List.filter
         (fun (a : Alarm.t) ->
           Alarm.is_fault a
           && not (List.exists (fun s -> List.mem s ep.spec.faulty) a.suspects))
         verdicts)
  in
  { attempted;
    failed = attempted - answered;
    decided = List.length verdicts;
    detect_ms =
      Array.of_list
        (List.map
           (fun a -> Time.to_float_ms (Alarm.detection_time a))
           verdicts);
    at_timeout;
    false_alarms;
    digest = Measure.verdict_digest verdicts;
    events = Option.value ep.sentinel ~default:0 - ep.events0 }

(* Ground truth the workload must show: an injected replica is blamed
   at least once, and nothing is left undecided. *)
let sane ep (o : outcome) =
  o.attempted > 0 && o.failed = 0 && o.decided > 0
  && (ep.spec.faulty = []
     || List.exists
          (fun (a : Alarm.t) ->
            Alarm.is_fault a
            && List.exists (fun s -> List.mem s ep.spec.faulty) a.suspects)
          (Validator.alarms ep.validator))

(* --- The traced pass --- *)

type traced = {
  layers : Layers.result;
  responses : int;
  backlog_ms : Measure.Samples.t;   (** every controller, every sim ms *)
  inflight : Measure.Samples.t;     (** validator in-flight, every sim ms *)
}

let probe ep responses =
  let v = ep.validator and d = ep.deployment in
  let network = ep.env.Setup.network in
  let fabric = Cluster.fabric ep.env.Setup.cluster in
  let pipelines = Array.map Controller.pipeline (controllers ep) in
  let switches = Array.of_list (Network.switches network) in
  let hosts = Array.of_list (Network.hosts network) in
  let read (c : int array) =
    c.(0) <- Validator.decided_count v;
    c.(1) <- Deployment.chatter_bytes d;
    c.(2) <-
      Array.fold_left
        (fun acc p -> acc + Pipeline.completed p + Pipeline.dropped p)
        0 pipelines;
    c.(3) <- Deployment.replication_bytes d;
    c.(4) <- !responses;
    c.(5) <- Validator.batch_count v;
    c.(6) <- Validator.pending_count v;
    c.(7) <- Fabric.events_applied fabric;
    c.(8) <-
      Array.fold_left
        (fun acc s ->
          acc + Switch.packet_in_count s + Switch.flow_mod_count s
          + Switch.packet_out_count s + Switch.dropped_count s)
        0 switches;
    c.(9) <-
      Array.fold_left
        (fun acc h -> acc + Host.received_count h)
        (Network.data_plane_bytes network)
        hosts
  in
  { Layers.owners = [| 0; 1; 2; 3; 4; 4; 4; 5; 6; 7 |]; read }

let run_traced ep =
  let responses = ref 0 in
  Validator.on_response ep.validator (fun _ -> incr responses);
  let pipelines = Array.map Controller.pipeline (controllers ep) in
  let backlog_ms = Measure.Samples.create ()
  and inflight = Measure.Samples.create () in
  let every_ms () =
    Array.iter
      (fun p ->
        Measure.Samples.add backlog_ms (Time.to_float_ms (Pipeline.backlog p)))
      pipelines;
    Measure.Samples.add inflight
      (float_of_int (Validator.pending_count ep.validator))
  in
  let layers =
    Layers.run ep.env.Setup.engine (probe ep responses) ~finished:(finished ep)
      ~every_ms ~after_step:ignore
  in
  { layers; responses = !responses; backlog_ms; inflight }

(* Per-layer figures of one traced pass, beside the untraced pass's GC
   counts; [decided] is the pass's decided-verdict count. *)
let layer_metrics ep (o : outcome) (t : traced) ~(gc : Measure.gc) ~dispatch =
  let n = o.decided in
  let t0 = ep.tally0 and t1 = tally ep.env ep.deployment in
  let per_trigger f = Measure.per (f t1 - f t0) n in
  let channel f = per_trigger (fun x -> f x.channel) in
  let late = t1.late - t0.late and dups = t1.duplicates - t0.duplicates in
  Layers.metrics t.layers ~triggers:n
  @ Layers.engine_metrics t.layers ~dispatch ~triggers:n
  @ Layers.gc_metrics t.layers ~gc ~triggers:n
  @ Measure.Samples.summary "controller.backlog_ms" t.backlog_ms
  @ Measure.Samples.summary "validator.inflight" t.inflight
  @ [ ("controller.pipeline_dropped_per_ktrigger",
       1000. *. per_trigger (fun x -> x.pipeline_dropped));
      ("channel.sent_per_trigger", channel (fun s -> s.Channel.sent));
      ("channel.dropped_per_trigger", channel (fun s -> s.Channel.dropped));
      ("channel.duplicated_per_trigger", channel (fun s -> s.Channel.duplicated));
      ("channel.retransmitted_per_trigger",
       channel (fun s -> s.Channel.retransmitted));
      ("validator.responses_per_trigger", Measure.per t.responses n);
      ("validator.batches_per_trigger", per_trigger (fun x -> x.batches));
      ("validator.late_per_trigger", Measure.per late n);
      ("validator.duplicate_per_trigger", Measure.per dups n);
      ("validator.stragglers_per_trigger", per_trigger (fun x -> x.stragglers));
      ("deployment.replication_bytes_per_trigger",
       per_trigger (fun x -> x.replication_bytes));
      ("deployment.validator_bytes_per_trigger",
       per_trigger (fun x -> x.validator_bytes));
      ("store.events_applied_per_trigger", per_trigger (fun x -> x.store_events));
      ("store.bytes_per_trigger", per_trigger (fun x -> x.store_bytes));
      ("net.dataplane_bytes_per_trigger",
       per_trigger (fun x -> x.dataplane_bytes));
      ("validator.useful_response_ratio",
       Measure.per (t.responses - late - dups) t.responses);
      ("verdict.false_alarm_ratio", Measure.per o.false_alarms n) ]
