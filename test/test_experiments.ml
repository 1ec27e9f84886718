(* Smoke tests for the experiment harnesses: tiny versions of each
   figure must run and produce sane shapes. The bench regenerates the
   full figures; these only guard the plumbing. *)

module Time = Jury_sim.Time
module Figures = Jury_experiments.Figures
module Setup = Jury_experiments.Setup

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_setup_env () =
  let env =
    Setup.make ~seed:3 ~switches:4
      ~jury:(Jury.Jury_config.make ~k:2 ())
      ~profile:Jury_controller.Profile.onos ~nodes:3 ()
  in
  check_bool "validator available" true
    (match Setup.validator env with _ -> true);
  let t0 = Jury_sim.Engine.now env.Setup.engine in
  Jury_workload.Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
    ~packet_in_rate:200. ~duration:(Time.sec 1);
  Setup.run_for env (Time.sec 2);
  let r = Jury.Report.of_validator ~since:t0 (Setup.validator env) in
  check_bool "some verdicts" true (r.decided > 50);
  check_bool "detection times recorded" true
    (Array.length r.detection_ms = r.decided)

(* Runner arms faults and the model checker attaches its chooser
   between [build] and [boot]; both need [build] to run nothing. *)
let test_build_runs_no_event () =
  let cluster =
    Setup.build ~switches:4 ~profile:Jury_controller.Profile.onos ~nodes:3 ()
  in
  let engine = Jury_controller.Cluster.engine cluster in
  check_bool "clock at zero" true
    (Time.equal (Jury_sim.Engine.now engine) Time.zero);
  check_int "no event executed" 0 (Jury_sim.Engine.executed_events engine)

(* Each cluster renders FLOWSDB strings through its own memo, which
   its replicas share: a second deployment in the same process starts
   with an empty memo and stores strings of its own, never the first
   one's. *)
let test_flow_memo_per_deployment () =
  let module Cluster = Jury_controller.Cluster in
  let module Memo = Jury_controller.Values.Flow.Memo in
  let deploy () =
    let cluster =
      Setup.build ~seed:3 ~switches:4 ~profile:Jury_controller.Profile.onos
        ~nodes:3 ()
    in
    check_int "memo empty after build" 0
      (Memo.size (Cluster.flow_memo cluster));
    ignore (Jury.Jury_config.install cluster (Jury.Jury_config.make ~k:2 ()));
    Setup.boot cluster;
    let engine = Cluster.engine cluster in
    Jury_workload.Flows.controlled_mix (Cluster.network cluster)
      ~rng:(Jury_sim.Rng.split (Jury_sim.Engine.rng engine))
      ~packet_in_rate:200. ~duration:(Time.sec 1);
    Jury_sim.Engine.run engine
      ~until:(Time.add (Jury_sim.Engine.now engine) (Time.sec 2));
    cluster
  in
  let a = deploy () in
  let b = deploy () in
  let memo c = Cluster.flow_memo c in
  check_bool "one memo per cluster" true (memo a != memo b);
  (* The first execution of a trigger renders its rule; the later ones
     reuse its plan and render nothing, so only a replica that plans
     again (a read gave another answer, or a colliding trigger took
     the plan's slot) finds a rule already rendered. *)
  let hits = Memo.hits (memo a) and lookups = Memo.lookups (memo a) in
  check_bool "some lookups" true (lookups > 0);
  check_bool
    (Printf.sprintf "hits are under a tenth of lookups (%d of %d)" hits
       lookups)
    true
    (10 * hits < lookups);
  let flows c =
    Jury_store.Fabric.entries (Cluster.fabric c) ~node:0
      ~cache:Jury_store.Cache_names.flowsdb
  in
  let shared = ref 0 and flows_b = flows b in
  List.iter
    (fun (key, va) ->
      match List.assoc_opt key flows_b with
      | Some vb ->
          incr shared;
          Alcotest.(check string) "same rule, same value" va vb;
          check_bool "rendered by its own cluster" true (va != vb)
      | None -> ())
    (flows a);
  check_bool "both runs installed the same rules" true (!shared > 0)

let test_throughput_point_tracks_offered_load () =
  let low =
    Figures.fig4f ~seed:5 ~duration:(Time.sec 1) ~rates:[ 500. ]
      ~nodes_list:[ 1 ] ()
  in
  match low with
  | [ { Figures.points = [ (_, measured) ]; _ } ] ->
      check_bool "under capacity tracks offered" true
        (measured > 350. && measured < 650.)
  | _ -> Alcotest.fail "unexpected series shape"

let test_policy_scaling_linear () =
  let rows = Figures.policy_scaling ~iterations:300 ~sizes:[ 100; 1000 ] () in
  match rows with
  | [ (100, t100); (1000, t1000) ] ->
      check_bool "more policies cost more" true (t1000 > t100);
      check_bool "roughly linear (x4..x25)" true
        (t1000 /. Float.max 0.01 t100 > 4.)
  | _ -> Alcotest.fail "unexpected rows"

let test_detection_run_exposed () =
  let samples =
    Figures.detection_run_exposed ~seed:9 ~k:2 ~m:0 ~rate:400.
      ~duration:(Time.sec 1)
  in
  check_bool "samples collected" true (Array.length samples > 100);
  let s = Jury_stats.Summary.of_array samples in
  check_bool "median under the timeout" true (s.Jury_stats.Summary.p50 < 150.)

let test_detection_phase_cdfs () =
  let series =
    Figures.detection_phase_cdfs ~seed:9 ~rate:400. ~duration:(Time.sec 1) ()
  in
  let find label =
    List.find_opt (fun s -> s.Figures.label = label) series
  in
  check_bool "total series present" true (find "span/total" <> None);
  check_bool "replicate series present" true (find "span/replicate" <> None);
  check_bool "validate series present" true (find "span/validate" <> None);
  let total = Option.get (find "span/total") in
  check_bool "total has samples" true (total.Figures.samples > 10);
  (* The validator's wait dominates a trigger's end-to-end latency. *)
  let validate = Option.get (find "span/validate") in
  check_bool "validate below total p95" true
    (validate.Figures.p95_ms <= total.Figures.p95_ms +. 1e-6)

let test_packet_out_peak () =
  (* §VII-B1: PACKET_OUT throughput dwarfs the FLOW_MOD pipeline. *)
  check_bool "way above flow-mod rate" true (Figures.packet_out_peak () > 100_000.)

let test_overhead_accounting () =
  let env =
    Setup.make ~seed:11 ~switches:4
      ~jury:(Jury.Jury_config.make ~k:2 ())
      ~profile:Jury_controller.Profile.onos ~nodes:3 ()
  in
  let dep = Option.get env.Setup.deployment in
  (* Counters only grow: the window's counts are end minus start. *)
  let module D = Jury.Deployment in
  let replication0 = D.replication_bytes dep
  and validator0 = D.validator_bytes dep
  and chatter0 = D.chatter_bytes dep
  and triggers0 = D.replicated_trigger_count dep in
  Jury_workload.Flows.new_connections env.Setup.network ~rng:env.Setup.rng
    ~rate:100. ~duration:(Time.sec 1) ~mode:Jury_workload.Flows.Any_pair ();
  Setup.run_for env (Time.sec 2);
  check_bool "replication bytes counted" true
    (D.replication_bytes dep > replication0);
  check_bool "validator bytes counted" true (D.validator_bytes dep > validator0);
  check_bool "chatter counted" true (D.chatter_bytes dep > chatter0);
  check_bool "triggers counted" true
    (D.replicated_trigger_count dep - triggers0 > 50)

let test_odl_encapsulated_path () =
  (* The ODL deployment replicates triggers as doubly-encapsulated
     PACKET_INs; every replica pays a measured decapsulation cost. *)
  let env =
    Setup.make ~seed:13 ~switches:4
      ~jury:(Jury.Jury_config.make ~k:2 ~encapsulation:true ())
      ~profile:Jury_controller.Profile.odl ~nodes:3 ()
  in
  let dep = Option.get env.Setup.deployment in
  let n0 = Array.length (Jury.Deployment.decap_samples_us dep) in
  let bytes0 = Jury.Deployment.replication_bytes dep
  and triggers0 = Jury.Deployment.replicated_trigger_count dep in
  Jury_workload.Flows.new_connections env.Setup.network ~rng:env.Setup.rng
    ~rate:50. ~duration:(Time.sec 1) ~mode:Jury_workload.Flows.Any_pair ();
  Setup.run_for env (Time.sec 3);
  let all = Jury.Deployment.decap_samples_us dep in
  let samples = Array.sub all n0 (Array.length all - n0) in
  check_bool "decap samples collected" true (Array.length samples > 20);
  let s = Jury_stats.Summary.of_array samples in
  check_bool "median near profile" true
    (s.Jury_stats.Summary.p50 > 40. && s.Jury_stats.Summary.p50 < 250.);
  (* encapsulation costs extra bytes vs plain replication *)
  check_bool "replication bytes include encap overhead" true
    (Jury.Deployment.replication_bytes dep - bytes0
    > (Jury.Deployment.replicated_trigger_count dep - triggers0) * 60)

let test_ablation_nondeterminism_shape () =
  match Figures.ablation_nondeterminism ~duration:(Time.sec 2) () with
  | [ (_, _, faults_base, _); (_, _, faults_on, nondet_on);
      (_, _, faults_off, nondet_off) ] ->
      check_bool "deterministic baseline is cleanest" true
        (faults_base <= faults_on);
      check_bool "rule does not hurt" true (faults_on <= faults_off);
      check_bool "nondet labels only with the rule" true
        (nondet_on >= nondet_off)
  | _ -> Alcotest.fail "three rows expected"

(* Every trigger gets one verdict, also over lossy, duplicating
   links: a duplicated response that reaches the validator after its
   internal trigger was decided is late, not a new trigger. Each run
   below (the CLI's [simulate] defaults plus its loss flags) once
   decided one internal taint twice. *)
let test_each_taint_decided_once () =
  List.iter
    (fun (name, profile, jury) ->
      let env =
        Setup.make ~seed:11 ~switches:24 ~jury ~profile ~nodes:7 ()
      in
      Jury_workload.Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
        ~packet_in_rate:1000. ~duration:(Time.sec 5);
      Setup.run_for env (Time.sec 7);
      let taints =
        List.map
          (fun (a : Jury.Alarm.t) -> Jury_controller.Types.Taint.to_string a.taint)
          (Jury.Validator.verdicts (Setup.validator env))
      in
      check_int name
        (List.length (List.sort_uniq compare taints))
        (List.length taints))
    [ ("onos lossy", Jury_controller.Profile.onos,
       Jury.Jury_config.make ~k:6 ~drop:0.1 ~duplicate:0.05
         ~retransmit:(Jury.Jury_config.retransmit ~max_retries:2 ())
         ~degraded_quorum:1 ());
      ("ryu duplicating", Jury_controller.Profile.ryu,
       Jury.Jury_config.make ~k:6 ~duplicate:0.05 ());
      ("odl duplicating", Jury_controller.Profile.odl,
       Jury.Jury_config.make ~k:6 ~duplicate:0.05 ()) ]

let suite =
  [ ("setup env", `Slow, test_setup_env);
    ("build runs no event", `Quick, test_build_runs_no_event);
    ("flow memo per deployment", `Quick, test_flow_memo_per_deployment);
    ("each taint decided once", `Slow, test_each_taint_decided_once);
    ("throughput point", `Slow, test_throughput_point_tracks_offered_load);
    ("policy scaling linear", `Quick, test_policy_scaling_linear);
    ("detection run", `Slow, test_detection_run_exposed);
    ("detection phase cdfs", `Slow, test_detection_phase_cdfs);
    ("packet_out peak", `Quick, test_packet_out_peak);
    ("overhead accounting", `Slow, test_overhead_accounting);
    ("odl encapsulated path", `Slow, test_odl_encapsulated_path);
    ("nondeterminism ablation shape", `Slow, test_ablation_nondeterminism_shape) ]
