(* Trace replay: drive a JURY-enhanced ONOS cluster with the three
   benign background-traffic profiles standing in for the paper's
   LBNL / UNIV / SMIA traces, and report the false-alarm rate and
   validation-latency distribution per trace (the Fig. 4d experiment).

     dune exec examples/trace_replay.exe *)

open Jury_sim
module Setup = Jury_experiments.Setup
module Traces = Jury_workload.Traces
module Summary = Jury_stats.Summary

let run_trace (profile : Traces.profile) =
  let env =
    Setup.make ~seed:99 ~switches:12 ~hosts_per_switch:2
      ~jury:(Jury.Jury_config.make ~k:6 ())
      ~profile:Jury_controller.Profile.onos ~nodes:7 ()
  in
  let rng = env.Setup.rng in
  let validator = Setup.validator env in
  let before_decided = Jury.Validator.decided_count validator in
  let before_faults = Jury.Validator.fault_count validator in
  Traces.replay env.Setup.network ~rng ~profile ~duration:(Time.sec 5);
  Setup.run_for env (Time.sec 7);
  let decided = Jury.Validator.decided_count validator - before_decided in
  let faults = Jury.Validator.fault_count validator - before_faults in
  let times = Jury.Validator.detection_times_ms validator in
  let s = Summary.of_array times in
  Printf.printf
    "%-5s rate=%5.0f/s burst=%.1f  validated=%-6d false-alarms=%d (%.2f%%)  \
     p50=%.1fms p95=%.1fms\n"
    profile.Traces.name profile.Traces.mean_rate profile.Traces.burstiness
    decided faults
    (if decided = 0 then 0. else 100. *. float_of_int faults /. float_of_int decided)
    s.Summary.p50 s.Summary.p95

let () =
  print_endline
    "Benign trace replay on JURY-enhanced ONOS (n=7, k=6) -- paper reports \
     0.35% false positives:";
  List.iter run_trace Traces.all
