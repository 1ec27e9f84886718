open Jury_sim
module Validator = Jury.Validator
module Counter = Jury.Counter
module Injector = Jury_faults.Injector

type fingerprint = {
  verdict_counts : (Counter.t * int) list;
  verdict_lines : string list;
  report : string;
}

type outcome = {
  fp : fingerprint;
  pending_after_flush : int;
  alarm_count : int;
  detection_count : int;
  counters : (Counter.t * int) list;
  epoch : int;
  links : (string * Jury.Channel.stats) list;
  totals : Jury.Channel.stats;
}

let verdict_counters =
  Counter.[ Decided; Faulty; Unverifiable; Degraded; Overload ]

let count o c = List.assoc c o.counters

let verdict_line (a : Jury.Alarm.t) =
  Printf.sprintf "%s|%s|%s|%s|%d|%d"
    (Jury_controller.Types.Taint.to_string a.Jury.Alarm.taint)
    (Jury.Alarm.verdict_name a.Jury.Alarm.verdict)
    (match a.Jury.Alarm.primary with None -> "-" | Some p -> string_of_int p)
    (String.concat "," (List.map string_of_int a.Jury.Alarm.suspects))
    (Time.to_ns a.Jury.Alarm.trigger_at)
    (Time.to_ns a.Jury.Alarm.decided_at)

let fingerprint_of_validator v =
  let verdicts = Validator.verdicts v in
  { verdict_counts =
      List.map (fun c -> (c, Validator.count v c)) verdict_counters;
    verdict_lines = List.sort compare (List.map verdict_line verdicts);
    report = Jury.Report.to_string (Jury.Report.of_validator v) }

let fingerprint_equal a b = a = b

let diff_counters a b =
  List.find_map
    (fun (c, n) ->
      let m = List.assoc c b in
      if n = m then None
      else Some (Printf.sprintf "%s %d vs %d" (Counter.name c) n m))
    a

let diff_fingerprint a b =
  if a = b then None
  else if a.verdict_counts <> b.verdict_counts then
    diff_counters a.verdict_counts b.verdict_counts
  else if a.verdict_lines <> b.verdict_lines then
    let rec first_diff i xs ys =
      match (xs, ys) with
      | x :: xs', y :: ys' ->
          if String.equal x y then first_diff (i + 1) xs' ys'
          else Some (Printf.sprintf "verdict[%d]: %S vs %S" i x y)
      | x :: _, [] -> Some (Printf.sprintf "extra verdict[%d]: %S" i x)
      | [], y :: _ -> Some (Printf.sprintf "missing verdict[%d]: %S" i y)
      | [], [] -> Some "verdict lists differ"
    in
    first_diff 0 a.verdict_lines b.verdict_lines
  else Some "reports differ"

(* --- schedule-blind projection ------------------------------------ *)

(* What a schedule may legitimately change: taint serials (assignment
   order of same-instant triggers) and per-trigger timings (pipeline
   queue order at equal timestamps shifts service start times). What it
   must never change: how many triggers were decided, and each
   trigger's verdict class, primary and suspect set. The projection
   keeps exactly the latter — the explorer's cross-schedule invariant
   ("no schedule loses a verdict or raises a false alarm") compares
   these. Serial-stripping collisions are harmless: two triggers that
   collapse to the same line were interchangeable anyway, and the
   multiset (sorted list) keeps their count. *)
let blind_line line =
  match String.split_on_char '|' line with
  | taint :: verdict :: primary :: suspects :: _times ->
      let taint_class =
        match String.rindex_opt taint ':' with
        | Some i -> String.sub taint 0 i ^ ":*"
        | None -> taint
      in
      String.concat "|" [ taint_class; verdict; primary; suspects ]
  | _ -> line

let schedule_blind fp =
  { fp with
    verdict_lines = List.sort compare (List.map blind_line fp.verdict_lines);
    report = "" }

let diff_schedule_blind a b = diff_fingerprint (schedule_blind a) (schedule_blind b)

let apply_fault deployment ~policies (action : Case.fault_action) =
  let cluster = Jury.Deployment.cluster deployment in
  let mutate node m =
    Jury_controller.Controller.set_mutator
      (Jury_controller.Cluster.controller cluster node)
      (Some m)
  in
  match action with
  | Case.Slow { node; delay_ms } ->
      Injector.make_slow cluster ~node ~delay:(Time.ms delay_ms)
  | Case.Lossy { node; omit } ->
      Injector.make_lossy cluster ~node ~omit_probability:omit
  | Case.Crash { node } -> Injector.crash cluster ~node
  | Case.Drop_sends { node } -> mutate node Injector.drop_network_sends
  | Case.Blackhole { node } -> mutate node Injector.blackhole_flow_mods
  | Case.Lock_cache { node; cache } ->
      Injector.lock_cache cluster ~node
        ~cache:(Jury_store.Cache_names.of_string cache)
  | Case.Heal { node } -> Injector.heal cluster ~node
  | Case.Rejoin { node } -> Injector.rejoin deployment ~node
  | Case.Byzantine { node } -> Injector.make_byzantine cluster ~node
  | Case.Partition { node } -> Injector.partition cluster ~node
  | Case.Add_rule { rule } -> (
      (* Policy churn: recompile-on-next-read happens inside the
         engine; an unparseable rule is dropped rather than aborting
         the run (mutators draw from a fixed vocabulary, so this only
         guards hand-written cases). *)
      match Jury_policy.Parse.dsl_line rule with
      | Ok ast -> Jury_policy.Engine.add_rule policies ast
      | Error _ -> ())
  | Case.Fail_master { node } ->
      (* Crash plus an explicit HA failover: the dead node's switches
         move to the survivors mid-run. Skipped when every other node
         has already been failed over (fail_over rejects a cluster with
         no survivors). *)
      Injector.crash cluster ~node;
      if
        List.exists
          (fun i -> i <> node)
          (Jury_controller.Cluster.alive_nodes cluster)
      then Jury_controller.Cluster.fail_over cluster ~node

let plan_of (case : Case.t) =
  match case.Case.topo with
  | Case.Linear ->
      Jury_topo.Builder.linear ~switches:case.Case.switches
        ~hosts_per_switch:case.Case.hosts_per_switch
  | Case.Ring ->
      Jury_topo.Builder.ring ~switches:case.Case.switches
        ~hosts_per_switch:case.Case.hosts_per_switch
  | Case.Star ->
      Jury_topo.Builder.star ~leaves:case.Case.switches
        ~hosts_per_leaf:case.Case.hosts_per_switch
  | Case.Single -> Jury_topo.Builder.single ~hosts:(max 2 case.Case.switches)

let run_workload (case : Case.t) network ~rng ~duration =
  match case.Case.workload with
  | Case.Mix ->
      Jury_workload.Flows.controlled_mix network ~rng
        ~packet_in_rate:case.Case.rate ~duration
  | Case.Connections ->
      Jury_workload.Flows.new_connections network ~rng ~rate:case.Case.rate
        ~duration ()
  | Case.Joins ->
      Jury_workload.Flows.host_joins network ~rng ~rate:case.Case.rate
        ~duration
  | Case.Blast ->
      let plan = Jury_net.Network.plan network in
      let slot = Jury_topo.Builder.find_host_slot plan 0 in
      Jury_workload.Cbench.blast network ~rng
        ~dpid:slot.Jury_topo.Builder.dpid ~burst:25 ~burst_gap:(Time.ms 10)
        ~duration

let execute ?chooser ?(deterministic = false) ?shards ?batch_us ?trace
    (case : Case.t) =
  (* Every run gets its own policy engine so [Add_rule] fault events
     mutate run-local state; an empty engine is what [Case.jury_config]
     would have built anyway, so blind runs are unaffected. *)
  let policies = Jury_policy.Engine.create [] in
  let config =
    Case.jury_config ?shards ?batch_us ~policies ~deterministic case
  in
  let profile =
    if case.Case.odl then Jury_controller.Profile.odl
    else Jury_controller.Profile.onos
  in
  let profile =
    if deterministic then Jury_controller.Profile.deterministic profile
    else profile
  in
  let cluster =
    Jury_experiments.Setup.build ~seed:case.Case.case_seed
      ~plan:(plan_of case) ?trace ~profile ~nodes:case.Case.nodes ()
  in
  let engine = Jury_controller.Cluster.engine cluster in
  let network = Jury_controller.Cluster.network cluster in
  (* [build] ran no event, so the chooser sees every tie-break. *)
  Option.iter (fun c -> Engine.set_chooser engine (Some c)) chooser;
  let deployment = Jury.Jury_config.install cluster config in
  let validator = Jury.Deployment.validator deployment in
  Jury_experiments.Setup.boot cluster;
  let duration = Time.ms case.Case.duration_ms in
  let rng = Rng.split (Engine.rng engine) in
  run_workload case network ~rng ~duration;
  List.iter
    (fun (f : Case.fault_event) ->
      Engine.schedule engine ~after:(Time.ms f.Case.at_ms) (fun () ->
          apply_fault deployment ~policies f.Case.action))
    case.Case.faults;
  (* Settle for two seconds past the workload window so every timer
     (validation timeouts, retransmissions, link recoveries) fires. *)
  Engine.run engine
    ~until:(Time.add (Engine.now engine) (Time.add duration (Time.sec 2)));
  Validator.flush validator;
  { fp = fingerprint_of_validator validator;
    pending_after_flush = Validator.pending_count validator;
    alarm_count = List.length (Validator.alarms validator);
    detection_count =
      Array.length (Jury.Report.of_validator validator).detection_ms;
    counters = Validator.counters validator;
    epoch = Validator.current_epoch validator;
    links = Jury.Deployment.channel_stats deployment;
    totals = Jury.Deployment.channel_totals deployment }
