open Jury_sim
module Cluster = Jury_controller.Cluster
module Scenarios = Jury_faults.Scenarios
module Injector = Jury_faults.Injector

type report = {
  scenario : Scenarios.t;
  detected : bool;
  detection_time_ms : float option;
  matching_alarms : Jury.Alarm.t list;
  other_alarms : Jury.Alarm.t list;
  verdict_count : int;
}

let run ?(seed = 11) ?(nodes = 7) ?(k = 6) ?(faulty = 2) ?(extra_slow = [])
    ?switches ?(random_secondaries = true) ?trace ?shards ?max_inflight
    ?batch (scenario : Scenarios.t) =
  let cluster =
    Setup.build ~seed ?switches
      ~lenient_tables:scenario.Scenarios.needs_lenient_switches ?trace
      ~profile:scenario.Scenarios.profile ~nodes ()
  in
  let engine = Cluster.engine cluster in
  let deployment =
    Jury.Jury_config.install cluster
      (Scenarios.jury_config scenario ~k ~random_secondaries ?shards
         ?max_inflight ?batch ())
  in
  (* The context RNG splits before boot, not after as in [Setup.make]:
     a scenario may arm during bootstrap, and moving the split would
     shift every seeded scenario's schedule. *)
  let ctx =
    { Scenarios.cluster;
      network = Cluster.network cluster;
      deployment;
      faulty;
      rng = Rng.split (Engine.rng engine) }
  in
  List.iter
    (fun node -> Injector.make_slow cluster ~node ~delay:(Time.ms 40))
    extra_slow;
  if scenario.Scenarios.arm_before_start then scenario.Scenarios.arm ctx;
  Setup.boot cluster;
  if not scenario.Scenarios.arm_before_start then scenario.Scenarios.arm ctx;
  let t0 = Engine.now engine in
  scenario.Scenarios.provoke ctx;
  Engine.run engine
    ~until:(Time.add (Engine.now engine) scenario.Scenarios.settle);
  let validator = Jury.Deployment.validator deployment in
  let alarms = Jury.Validator.alarms validator in
  let matches (a : Jury.Alarm.t) =
    Time.(a.Jury.Alarm.decided_at >= t0)
    && List.mem faulty a.Jury.Alarm.suspects
    && (match a.Jury.Alarm.verdict with
       | Jury.Alarm.Faulty faults ->
           List.exists scenario.Scenarios.expected faults
       | _ -> false)
  in
  let matching_alarms, other_alarms = List.partition matches alarms in
  { scenario;
    detected = matching_alarms <> [];
    detection_time_ms =
      (match matching_alarms with
      | a :: _ -> Some (Time.to_float_ms (Jury.Alarm.detection_time a))
      | [] -> None);
    matching_alarms;
    other_alarms;
    verdict_count = Jury.Validator.decided_count validator }

let run_matrix ?pool ?(seed = 11) ?(repeats = 1) ?nodes ?k ?faulty
    ?extra_slow ?switches scenarios =
  let pool =
    match pool with Some p -> p | None -> Jury_par.Pool.default ()
  in
  (* One pool task per (scenario, repeat) cell — every cell builds its
     own engine inside the task, so the matrix is embarrassingly
     parallel and its result is independent of the worker count. *)
  Jury_par.Pool.map_grid pool scenarios (List.init repeats Fun.id)
    (fun scenario i ->
      run ~seed:(seed + (i * 13)) ?nodes ?k ?faulty ?extra_slow ?switches
        scenario)

let pp_report fmt r =
  Format.fprintf fmt "%-28s %-2s %-10s %s" r.scenario.Scenarios.name
    (Scenarios.klass_name r.scenario)
    (if r.detected then "DETECTED" else "MISSED")
    (match r.detection_time_ms with
    | Some ms -> Printf.sprintf "in %.1fms (%s)" ms r.scenario.Scenarios.expected_name
    | None -> "(" ^ r.scenario.Scenarios.expected_name ^ " not raised)")
