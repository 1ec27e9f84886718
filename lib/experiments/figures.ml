open Jury_sim
module Cdf = Jury_stats.Cdf
module Summary = Jury_stats.Summary
module Profile = Jury_controller.Profile
module Cluster = Jury_controller.Cluster
module Injector = Jury_faults.Injector
module Flows = Jury_workload.Flows
module Traces = Jury_workload.Traces
module Probe = Jury_workload.Probe

type cdf_series = {
  label : string;
  cdf : Cdf.t;
  samples : int;
  p50_ms : float;
  p95_ms : float;
}

type xy_series = { series_label : string; points : (float * float) list }

type detection_row = {
  scenario_name : string;
  klass : string;
  detected : int;
  repeats : int;
  mean_ms : float;
  expected : string;
}

(* Every sweep below fans its points out on a Jury_par pool: one task
   per sweep point, each task building its own engine/RNG/network, so
   the sweep result is byte-identical whatever the worker count (pass
   ~pool or set the ambient pool via --jobs / JURY_JOBS; jobs = 1 is
   plain serial execution). *)
let get_pool = function
  | Some pool -> pool
  | None -> Jury_par.Pool.default ()

let par ?pool xs f = Jury_par.Pool.map_ordered (get_pool pool) xs f

(* The nested sweeps (series × rates, modes × repeats) run every cell,
   not just every series, as its own pool task. *)
let grid ?pool rows cols f = Jury_par.Pool.map_grid (get_pool pool) rows cols f

let cdf_series_of ~label samples =
  if Array.length samples = 0 then
    { label; cdf = Cdf.of_samples [||]; samples = 0; p50_ms = 0.; p95_ms = 0. }
  else
    { label;
      cdf = Cdf.of_samples samples;
      samples = Array.length samples;
      p50_ms = Summary.percentile samples 0.5;
      p95_ms = Summary.percentile samples 0.95 }

let mark_faulty env nodes =
  (* Timing-faulty replicas: consistently slow, occasionally silent. *)
  List.iter
    (fun node ->
      Injector.make_slow env.Setup.cluster ~node ~delay:(Time.ms 25);
      Injector.make_lossy env.Setup.cluster ~node ~omit_probability:0.05)
    nodes

(* --- Fig. 4a --- *)

let detection_run ~seed ~profile ~k ~m ~rate ~duration ~encapsulation =
  let env =
    Setup.make ~seed
      ~jury:(Jury.Jury_config.make ~k ~encapsulation ())
      ~profile ~nodes:7 ()
  in
  let faulty = List.init m (fun i -> 2 + i) in
  mark_faulty env faulty;
  let t0 = Engine.now env.Setup.engine in
  Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
    ~packet_in_rate:rate ~duration;
  Setup.run_for env (Time.add duration (Time.sec 2));
  Setup.detection_times_since env ~since:t0

let detection_run_exposed ~seed ~k ~m ~rate ~duration =
  detection_run ~seed ~profile:Profile.onos ~k ~m ~rate ~duration
    ~encapsulation:false

let detection_phase_cdfs ?(seed = 42) ?(duration = Time.sec 5)
    ?(rate = 3000.) () =
  (* Same setting as Fig. 4a's k=6 series, but with the causal trace
     attached: each verdict's end-to-end time decomposes into per-phase
     child-span durations, so we can see where detection time goes. *)
  let trace = Jury_obs.Trace.create ~capacity:1_000_000 () in
  let env =
    Setup.make ~seed ~trace
      ~jury:(Jury.Jury_config.make ~k:6 ())
      ~profile:Profile.onos ~nodes:7 ()
  in
  mark_faulty env [ 2 ];
  Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
    ~packet_in_rate:rate ~duration;
  Setup.run_for env (Time.add duration (Time.sec 2));
  (* One sample per closed root span for "span/total", and one per
     phase that span's children visited; open roots never reached a
     verdict and are skipped. *)
  let series = Hashtbl.create 16 in
  let add name ms =
    Hashtbl.replace series name
      (ms :: Option.value ~default:[] (Hashtbl.find_opt series name))
  in
  List.iter
    (fun root ->
      Option.iter
        (fun total_ns ->
          add "span/total" (float_of_int total_ns /. 1e6);
          List.iter
            (fun (phase, ms) ->
              add ("span/" ^ Jury_obs.Trace.phase_name phase) ms)
            (Jury_obs.Span.phase_breakdown_ms root))
        (Jury_obs.Span.duration_ns root))
    (Jury_obs.Span.assemble (Jury_obs.Trace.events trace));
  Hashtbl.fold (fun name samples acc -> (name, samples) :: acc) series []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, samples) ->
         cdf_series_of ~label:name (Array.of_list (List.rev samples)))

let fig4a ?pool ?(seed = 42) ?(duration = Time.sec 10) ?(rate = 5500.) () =
  (* One seed across configurations: every series sees the same
     workload realisation, so the curves differ only by (k, m). *)
  par ?pool
    [ (2, 0); (4, 0); (6, 0); (6, 2) ]
    (fun (k, m) ->
      let samples =
        detection_run ~seed ~profile:Profile.onos ~k ~m ~rate ~duration
          ~encapsulation:false
      in
      cdf_series_of ~label:(Printf.sprintf "k=%d, m=%d" k m) samples)

let fig4b ?pool ?(seed = 43) ?(duration = Time.sec 10)
    ?(rates = [ 500.; 3000.; 5500. ]) () =
  par ?pool rates (fun rate ->
      let samples =
        detection_run ~seed:(seed + int_of_float rate) ~profile:Profile.onos
          ~k:6 ~m:0 ~rate ~duration ~encapsulation:false
      in
      cdf_series_of
        ~label:(Printf.sprintf "%.0f PacketIns/sec" rate)
        samples)

let fig4c ?pool ?(seed = 44) ?(duration = Time.sec 10) ?(rate = 500.) () =
  par ?pool
    [ (2, 0); (4, 0); (6, 0); (6, 2) ]
    (fun (k, m) ->
      let samples =
        detection_run ~seed ~profile:Profile.odl ~k ~m ~rate ~duration
          ~encapsulation:true
      in
      cdf_series_of ~label:(Printf.sprintf "k=%d, m=%d" k m) samples)

let fig4d ?pool ?(seed = 45) ?(duration = Time.sec 10) () =
  let faulty_nodes = [ 2; 3 ] in
  par ?pool Traces.all
    (fun (profile : Traces.profile) ->
      let env =
        Setup.make ~seed:(seed + String.length profile.Traces.name)
          ~jury:(Jury.Jury_config.make ~k:6 ())
          ~profile:Profile.onos ~nodes:7 ()
      in
      mark_faulty env faulty_nodes;
      let t0 = Engine.now env.Setup.engine in
      Traces.replay env.Setup.network ~rng:env.Setup.rng ~profile ~duration;
      Setup.run_for env (Time.add duration (Time.sec 2));
      let samples = Setup.detection_times_since env ~since:t0 in
      let decided, _, _ = Setup.verdict_stats_since env ~since:t0 in
      (* False positives are alarms blaming a *healthy* controller:
         alarms that (correctly) implicate the two timing-faulty
         replicas are true positives. *)
      let false_alarms =
        Jury.Validator.alarms (Setup.validator env)
        |> List.filter (fun (a : Jury.Alarm.t) ->
               Time.(a.Jury.Alarm.decided_at >= t0)
               && not
                    (List.exists
                       (fun s -> List.mem s faulty_nodes)
                       a.Jury.Alarm.suspects))
        |> List.length
      in
      let fp_rate =
        if decided = 0 then 0.
        else float_of_int false_alarms /. float_of_int decided
      in
      (cdf_series_of ~label:profile.Traces.name samples, fp_rate))

let detection_matrix ?pool ?(seed = 46) ?(repeats = 10) () =
  Runner.run_matrix ?pool ~seed ~repeats ~switches:12 ~extra_slow:[ 5 ]
    Jury_faults.Scenarios.all
  |> List.map (fun ((scenario : Jury_faults.Scenarios.t), outcomes) ->
      let detected = List.filter (fun r -> r.Runner.detected) outcomes in
      let times =
        List.filter_map (fun r -> r.Runner.detection_time_ms) detected
      in
      { scenario_name = scenario.Jury_faults.Scenarios.name;
        klass = Jury_faults.Scenarios.klass_name scenario;
        detected = List.length detected;
        repeats;
        mean_ms =
          (if times = [] then 0.
           else List.fold_left ( +. ) 0. times /. float_of_int (List.length times));
        expected =
          Jury.Alarm.fault_name scenario.Jury_faults.Scenarios.expected })

(* --- Fig. 4e: Cbench blast --- *)

let fig4e ?(seed = 47) ?(duration = Time.sec 50) () =
  let env =
    Setup.make ~seed ~switches:14 ~hosts_per_switch:2 ~profile:Profile.onos
      ~nodes:7 ()
  in
  let dpid = Jury_openflow.Of_types.Dpid.of_int 1 in
  let probe =
    Probe.start env.Setup.network ~window_sec:1.0
      ~duration:(Time.add duration (Time.sec 1)) ()
  in
  Jury_workload.Cbench.blast env.Setup.network ~rng:env.Setup.rng ~dpid
    ~burst:Jury_workload.Cbench.default_burst
    ~burst_gap:Jury_workload.Cbench.default_gap ~duration;
  Setup.run_for env (Time.add duration (Time.sec 2));
  let pi = Jury_stats.Rate.series (Probe.packet_in probe) in
  let fm = Jury_stats.Rate.series (Probe.flow_mod probe) in
  let fm_at t =
    match Array.find_opt (fun (t', _) -> t' = t) fm with
    | Some (_, r) -> r
    | None -> 0.
  in
  Array.to_list (Array.map (fun (t, r) -> (t, r, fm_at t)) pi)

(* --- Throughput sweeps (Fig. 4f/4g/4h) --- *)

let throughput_point ~seed ~profile ~nodes ~jury ~rate ~duration =
  let env =
    Setup.make ~seed ~switches:14 ~hosts_per_switch:2 ?jury ~profile ~nodes ()
  in
  let warmup = Time.ms 500 in
  Setup.run_for env warmup;
  let probe =
    Probe.start env.Setup.network ~window_sec:0.5 ~duration ()
  in
  Flows.new_connections env.Setup.network ~rng:env.Setup.rng ~rate ~duration
    ~mode:Flows.Same_switch ();
  Setup.run_for env (Time.add duration (Time.sec 1));
  Probe.mean_flow_mod_rate probe

(* One throughput curve per series, one point per rate. *)
let throughput_sweep ?pool ~rates ~label series point =
  List.map
    (fun (s, vals) ->
      { series_label = label s; points = List.combine rates vals })
    (grid ?pool series rates point)

let fig4f ?pool ?(seed = 48) ?(duration = Time.sec 3)
    ?(rates = [ 1000.; 2500.; 4000.; 5500.; 7000.; 8500.; 10000. ])
    ?(nodes_list = [ 1; 3; 5; 7 ]) () =
  throughput_sweep ?pool ~rates ~label:(Printf.sprintf "n = %d") nodes_list
    (fun nodes rate ->
      throughput_point ~seed:(seed + nodes) ~profile:Profile.onos ~nodes
        ~jury:None ~rate ~duration)

let fig4g ?pool ?(seed = 49) ?(duration = Time.sec 3)
    ?(rates = [ 200.; 400.; 600.; 800.; 1000. ]) ?(nodes_list = [ 1; 3; 5; 7 ])
    () =
  throughput_sweep ?pool ~rates ~label:(Printf.sprintf "n = %d") nodes_list
    (fun nodes rate ->
      throughput_point ~seed:(seed + nodes) ~profile:Profile.odl ~nodes
        ~jury:None ~rate ~duration)

let fig4h ?pool ?(seed = 50) ?(duration = Time.sec 3)
    ?(rates = [ 1000.; 2500.; 4000.; 5500.; 7000.; 8500.; 10000. ]) () =
  let configs =
    (None, "Without Jury, n = 7")
    :: List.map
         (fun k ->
           ( Some (Jury.Jury_config.make ~k ()),
             Printf.sprintf "Jury, n = 7, k = %d" k ))
         [ 2; 4; 6 ]
  in
  throughput_sweep ?pool ~rates ~label:snd configs (fun (jury, _) rate ->
      throughput_point ~seed ~profile:Profile.onos ~nodes:7 ~jury ~rate
        ~duration)

let fig4i ?pool ?(seed = 51) ?(duration = Time.sec 5)
    ?(rates = [ 100.; 200.; 300.; 400.; 500. ]) () =
  par ?pool rates (fun rate ->
      let env =
        Setup.make ~seed:(seed + int_of_float rate)
          ~jury:(Jury.Jury_config.make ~k:6 ~encapsulation:true ())
          ~profile:Profile.odl ~nodes:7 ()
      in
      let deployment = Option.get env.Setup.deployment in
      Jury.Deployment.reset_accounting deployment;
      Flows.new_connections env.Setup.network ~rng:env.Setup.rng ~rate
        ~duration ~mode:Flows.Any_pair ();
      Setup.run_for env (Time.add duration (Time.sec 1));
      cdf_series_of
        ~label:(Printf.sprintf "%.0f messages/sec" rate)
        (Jury.Deployment.decap_samples_us deployment))

(* --- Three-profile comparison: Fig. 4 detection/throughput across
   controller flavours, including the standalone Ryu-style profile --- *)

type profile_row = {
  pr_name : string;
  pr_clustered : bool;
  pr_rate : float;          (* PacketIns/sec the profile is driven at *)
  pr_detection : cdf_series;
  pr_base_fm_rate : float;  (* FLOW_MODs/sec without JURY *)
  pr_jury_fm_rate : float;  (* FLOW_MODs/sec with JURY, k = 6 *)
  pr_overhead_pct : float;
}

(* Each profile is driven at a rate matched to its service model: the
   clustered ONOS pipeline sustains Fig. 4's 5.5K pps, ODL is measured
   at its paper rate of 500 pps, and the single-threaded standalone
   Ryu instance (every switch is mastered by the one leader) at
   800 pps. *)
let profile_specs =
  [ (Profile.onos, 5500.); (Profile.odl, 500.); (Profile.ryu, 800.) ]

let profile_comparison ?pool ?(seed = 60) ?(duration = Time.sec 5) ?names ()
    =
  let specs =
    match names with
    | None -> profile_specs
    | Some names ->
        List.filter
          (fun ((p : Profile.t), _) -> List.mem p.Profile.name names)
          profile_specs
  in
  par ?pool specs (fun (profile, rate) ->
      let encapsulation =
        profile.Profile.decapsulation_cost_median_us > 0.
      in
      let detection =
        detection_run ~seed ~profile ~k:6 ~m:1 ~rate ~duration ~encapsulation
      in
      let base =
        throughput_point ~seed ~profile ~nodes:7 ~jury:None ~rate ~duration
      in
      let jury =
        throughput_point ~seed ~profile ~nodes:7
          ~jury:(Some (Jury.Jury_config.make ~k:6 ~encapsulation ()))
          ~rate ~duration
      in
      { pr_name = profile.Profile.name;
        pr_clustered = profile.Profile.clustered;
        pr_rate = rate;
        pr_detection = cdf_series_of ~label:profile.Profile.name detection;
        pr_base_fm_rate = base;
        pr_jury_fm_rate = jury;
        pr_overhead_pct =
          (if base > 0. then (base -. jury) /. base *. 100. else 0.) })

(* --- §VII-B2(1): network overheads --- *)

type overhead_row = {
  config : string;
  store_mbps : float;
  jury_mbps : float;
  chatter_mbps : float;
  jury_fraction : float;
}

let mbps bytes seconds = 8. *. float_of_int bytes /. 1e6 /. seconds

let overhead_run ~seed ~profile ~k ~rate ~duration ~encapsulation ~config =
  let env =
    Setup.make ~seed
      ~jury:(Jury.Jury_config.make ~k ~encapsulation ())
      ~profile ~nodes:7 ()
  in
  let deployment = Option.get env.Setup.deployment in
  let fabric = Cluster.fabric env.Setup.cluster in
  Jury_store.Fabric.reset_accounting fabric;
  Jury.Deployment.reset_accounting deployment;
  Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
    ~packet_in_rate:rate ~duration;
  Setup.run_for env duration;
  let secs = Time.to_float_sec duration in
  let store = mbps (Jury_store.Fabric.bytes_replicated fabric) secs in
  let jury =
    mbps
      (Jury.Deployment.replication_bytes deployment
      + Jury.Deployment.validator_bytes deployment)
      secs
  in
  let chatter = mbps (Jury.Deployment.chatter_bytes deployment) secs in
  { config;
    store_mbps = store;
    jury_mbps = jury;
    chatter_mbps = chatter;
    jury_fraction = (if store +. jury > 0. then jury /. (store +. jury) else 0.) }

let overhead ?pool ?(seed = 52) ?(duration = Time.sec 5) () =
  par ?pool
    [ `Onos 2; `Onos 4; `Onos 6; `Odl ]
    (function
      | `Onos k ->
          overhead_run ~seed:(seed + k) ~profile:Profile.onos ~k ~rate:5500.
            ~duration ~encapsulation:false
            ~config:(Printf.sprintf "ONOS 5.5K pps, k=%d" k)
      | `Odl ->
          overhead_run ~seed:(seed + 60) ~profile:Profile.odl ~k:6 ~rate:500.
            ~duration ~encapsulation:true ~config:"ODL 500 pps, k=6")

(* --- §VII-B2(3): policy validation scaling --- *)

let policy_scaling ?(iterations = 2000) ?(sizes = [ 100; 500; 1000; 5000; 10000 ])
    () =
  let make_engine n =
    (* Rules that all must be scanned: non-matching key globs on the
       queried cache, so the check walks the whole set (worst case). *)
    let rules =
      List.init n (fun i ->
          Jury_policy.Ast.rule
            ~name:(Printf.sprintf "p%d" i)
            ~cache:Jury_store.Cache_names.flowsdb
            ~entry:
              (Jury_policy.Ast.Entry_glob
                 { key = Jury_policy.Pattern.compile
                     (Printf.sprintf "never-%d-*" i);
                   value = Jury_policy.Pattern.compile "*" })
            ())
    in
    Jury_policy.Engine.create rules
  in
  let query =
    { Jury_policy.Ast.q_controller = 3;
      q_trigger = `External;
      q_cache = Jury_store.Cache_names.flowsdb;
      q_op = Jury_store.Event.Create;
      q_key = "a1b2c3d4/deadbeefdeadbeefdeadbeefdeadbeef";
      q_value = String.make 160 'f';
      q_destination = `Local }
  in
  List.map
    (fun n ->
      let engine = make_engine n in
      (* Collect first, so that a major slice paying for earlier work
         does not land in a window this short, then warm up and
         measure. *)
      Gc.full_major ();
      for _ = 1 to 50 do
        ignore (Jury_policy.Engine.check engine query)
      done;
      let t0 = Sys.time () in
      for _ = 1 to iterations do
        ignore (Jury_policy.Engine.check engine query)
      done;
      let dt = Sys.time () -. t0 in
      (n, dt /. float_of_int iterations *. 1e6))
    sizes

let packet_out_peak () =
  1e6 /. Time.to_float_us Profile.onos.Profile.packet_out_service

(* --- Ablations --- *)

let ablation_state_aware ?pool ?(seed = 53) ?(duration = Time.sec 8)
    ?(rate = 3000.) () =
  par ?pool
    [ (true, "state-aware"); (false, "naive-majority") ]
    (fun (state_aware, mode) ->
      let env =
        Setup.make ~seed
          ~jury:(Jury.Jury_config.make ~k:4 ~state_aware ())
          ~profile:Profile.onos ~nodes:7 ()
      in
      let t0 = Engine.now env.Setup.engine in
      Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
        ~packet_in_rate:rate ~duration;
      Setup.run_for env (Time.add duration (Time.sec 2));
      let decided, faults, unverifiable =
        Setup.verdict_stats_since env ~since:t0
      in
      (mode, decided, faults, unverifiable))

let ablation_timeout ?pool ?(seed = 54) ?(duration = Time.sec 8) () =
  par ?pool [ 25; 50; 100; 150; 300; 600 ] (fun timeout_ms ->
      let env =
        Setup.make ~seed
          ~jury:(Jury.Jury_config.make ~k:6 ~timeout:(Time.ms timeout_ms) ())
          ~profile:Profile.onos ~nodes:7 ()
      in
      let t0 = Engine.now env.Setup.engine in
      Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
        ~packet_in_rate:3000. ~duration;
      Setup.run_for env (Time.add duration (Time.sec 2));
      let decided, faults, _ = Setup.verdict_stats_since env ~since:t0 in
      let samples = Setup.detection_times_since env ~since:t0 in
      let fp =
        if decided = 0 then 0. else float_of_int faults /. float_of_int decided
      in
      let p95 =
        if Array.length samples = 0 then 0. else Summary.percentile samples 0.95
      in
      (timeout_ms, fp, p95))

let ablation_adaptive_timeout ?pool ?(seed = 56) ?(duration = Time.sec 8) () =
  (* Bursty benign traffic (the SMIA profile has the heaviest tail)
     under three theta-tau regimes: a conservative fixed 500 ms (no
     false alarms, slow omission detection), an aggressive fixed 60 ms
     (fast but noisy), and the RTO-style adaptive estimator, which
     should track close to the aggressive setting's speed at close to
     the conservative setting's false-alarm rate — the SVIII-1
     trade-off. *)
  par ?pool
    [ (false, Time.ms 500, "fixed-500ms");
      (false, Time.ms 60, "fixed-60ms");
      (true, Time.ms 500, "adaptive") ]
    (fun (adaptive, timeout, label) ->
      let env =
        Setup.make ~seed
          ~jury:
            (Jury.Jury_config.make ~k:4 ~timeout
               ~adaptive_timeout:adaptive ())
          ~profile:Profile.onos ~nodes:7 ()
      in
      let t0 = Engine.now env.Setup.engine in
      Jury_workload.Traces.replay env.Setup.network ~rng:env.Setup.rng
        ~profile:Jury_workload.Traces.smia ~duration;
      Setup.run_for env (Time.add duration (Time.sec 2));
      let decided, faults, _ = Setup.verdict_stats_since env ~since:t0 in
      let samples = Setup.detection_times_since env ~since:t0 in
      let p95 =
        if Array.length samples = 0 then 0. else Summary.percentile samples 0.95
      in
      let theta =
        Time.to_float_ms
          (Jury.Validator.current_timeout_value (Setup.validator env))
      in
      (label, decided, faults, p95, theta))

let ablation_nondeterminism ?pool ?(seed = 57) ?(duration = Time.sec 5) () =
  (* An ECMP forwarding app picks random equal-cost next hops, so
     replicated executions legitimately diverge on the dual-homed
     three-tier testbed topology. The all-distinct rule (SIV-C B) only
     excuses triggers where every response differs — with 2-way ECMP
     and k+1 > 2 responses, duplicates are inevitable and the majority
     vote misfires, exactly the false-positive exposure the paper
     admits it cannot fully solve (SVIII-2). The deterministic baseline
     shows the same workload is clean without ECMP. *)
  par ?pool
    [ (Profile.onos, true, "deterministic baseline");
      (Profile.onos_ecmp, true, "ecmp, nondet-rule-on");
      (Profile.onos_ecmp, false, "ecmp, nondet-rule-off") ]
    (fun (profile, nondet_rule, label) ->
      let plan = Jury_topo.Builder.three_tier ~hosts_per_edge:2 in
      let env =
        Setup.make ~seed ~plan
          ~jury:(Jury.Jury_config.make ~k:4 ~nondet_rule ())
          ~profile ~nodes:7 ()
      in
      let t0 = Engine.now env.Setup.engine in
      Flows.new_connections env.Setup.network ~rng:env.Setup.rng ~rate:300.
        ~duration ~mode:Flows.Any_pair ();
      Setup.run_for env (Time.add duration (Time.sec 2));
      let decided, faults, _ = Setup.verdict_stats_since env ~since:t0 in
      let nondet_ok =
        Jury.Validator.verdicts (Setup.validator env)
        |> List.filter (fun (a : Jury.Alarm.t) ->
               a.Jury.Alarm.verdict = Jury.Alarm.Ok_non_deterministic)
        |> List.length
      in
      (label, decided, faults, nondet_ok))

(* --- Lossy-channel study: detection quality when the replication and
   response-collection links drop, duplicate and reorder messages. --- *)

type channel_row = {
  mode : string;
  c_decided : int;
  c_timeout_alarms : int;  (* verdicts carrying a response-timeout fault *)
  c_unverifiable : int;
  c_degraded : int;
  c_retransmits : int;
  c_channel : Jury.Channel.stats;  (* summed over every link *)
  c_detection : cdf_series;
}

let lossy_channel ?pool ?(seed = 58) ?(duration = Time.sec 5) ?(rate = 3000.)
    ?(drop = 0.1) () =
  (* Benign ONOS k=2 workload, one seed for all three modes. "clean"
     is the seed baseline; "lossy" shows how many spurious
     response-timeout / unverifiable verdicts a lossy channel induces;
     "lossy+retx" adds bounded retransmission and degraded-quorum
     decisions, which should claw most of them back. *)
  let run ~mode ~loss:(drop, duplicate, jitter_us) ~retransmit
      ~degraded_quorum =
    let env =
      Setup.make ~seed
        ~jury:
          (Jury.Jury_config.make ~k:2 ~drop ~duplicate ~jitter_us ?retransmit
             ?degraded_quorum ())
        ~profile:Profile.onos ~nodes:7 ()
    in
    let t0 = Engine.now env.Setup.engine in
    Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
      ~packet_in_rate:rate ~duration;
    Setup.run_for env (Time.add duration (Time.sec 2));
    let validator = Setup.validator env in
    let verdicts =
      Jury.Validator.verdicts validator
      |> List.filter (fun (a : Jury.Alarm.t) ->
             Time.(a.Jury.Alarm.decided_at >= t0))
    in
    let count pred = List.length (List.filter pred verdicts) in
    let deployment = Option.get env.Setup.deployment in
    { mode;
      c_decided = List.length verdicts;
      c_timeout_alarms =
        count (fun (a : Jury.Alarm.t) ->
            match a.Jury.Alarm.verdict with
            | Jury.Alarm.Faulty fs ->
                List.mem Jury.Alarm.Response_timeout fs
            | _ -> false);
      c_unverifiable =
        count (fun a ->
            a.Jury.Alarm.verdict = Jury.Alarm.Ok_unverifiable);
      c_degraded =
        count (fun a -> a.Jury.Alarm.verdict = Jury.Alarm.Ok_degraded);
      c_retransmits = Jury.Validator.count validator Retransmit;
      c_channel = Jury.Deployment.channel_totals deployment;
      c_detection =
        cdf_series_of ~label:mode (Setup.detection_times_since env ~since:t0) }
  in
  let lossy = (drop, 0.02, 150.) in
  par ?pool
    [ ("clean", (0., 0., 0.), None, None);
      ("lossy", lossy, None, None);
      ( "lossy+retx",
        lossy,
        Some (Jury.Jury_config.retransmit ()),
        Some 2 ) ]
    (fun (mode, loss, retransmit, degraded_quorum) ->
      run ~mode ~loss ~retransmit ~degraded_quorum)

let ablation_secondary_selection ?pool ?(seed = 55) ?(repeats = 10) () =
  (* With random per-trigger secondaries every replica eventually
     cross-checks the faulty one; with a static peer set a fault at a
     node outside anyone's peer set can only be caught when it acts as
     primary. We measure detections of a consensus fault either way.
     Both modes × all repeats run as one grid. *)
  let modes = [ (true, "random-per-trigger"); (false, "static-peers") ] in
  List.map
    (fun ((_, label), outcomes) ->
      let detected =
        List.length (List.filter (fun r -> r.Runner.detected) outcomes)
      in
      (label, detected, repeats))
    (grid ?pool modes (List.init repeats Fun.id) (fun (random, _) i ->
         Runner.run
           ~seed:(seed + (17 * i))
           ~switches:12 ~k:2 ~random_secondaries:random
           Jury_faults.Scenarios.link_failure))

(* --- Validator scaling: trigger rate x shard count --- *)

type scale_row = {
  vs_rate : float;
  vs_shards : int;
  vs_verdicts : int;
  vs_batches : int;
  vs_batched_responses : int;
  vs_shard_batches : int list;
  vs_wall_s : float;
  vs_verdicts_per_s : float;
}

let validator_scale ?pool ?(seed = 59) ?(duration = Time.sec 3)
    ?(rates = [ 1000.; 3000. ]) ?(shard_counts = [ 1; 2; 4 ]) ?max_inflight
    ?(batch = Time.us 200) () =
  let cells =
    List.concat_map
      (fun rate -> List.map (fun shards -> (rate, shards)) shard_counts)
      rates
  in
  par ?pool cells (fun (rate, shards) ->
      let t_start = Sys.time () in
      let env =
        Setup.make
          ~seed:(seed + int_of_float rate)
          ~jury:(Jury.Jury_config.make ~k:2 ~shards ?max_inflight ~batch ())
          ~profile:Profile.onos ~nodes:7 ()
      in
      let t0 = Engine.now env.Setup.engine in
      Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
        ~packet_in_rate:rate ~duration;
      Setup.run_for env (Time.add duration (Time.sec 2));
      let wall = Sys.time () -. t_start in
      let v = Setup.validator env in
      let decided, _, _ = Setup.verdict_stats_since env ~since:t0 in
      { vs_rate = rate;
        vs_shards = Jury.Validator.shard_count v;
        vs_verdicts = decided;
        vs_batches = Jury.Validator.batch_count v;
        vs_batched_responses = Jury.Validator.count v Batch_response;
        vs_shard_batches =
          List.init (Jury.Validator.shard_count v) (fun shard ->
              Jury.Validator.count ~shard v Batch);
        vs_wall_s = wall;
        vs_verdicts_per_s =
          (if wall > 0. then float_of_int decided /. wall else 0.) })
