(* Fault forensics: run every fault scenario from the paper (§III-B,
   §VII-A1 and the appendix) against a JURY-enhanced 7-node cluster and
   print a forensic report per scenario — which alarm fired, how fast,
   and who was blamed (JURY's action attribution, §V), plus the causal
   span timeline of the offending trigger from the obs layer.

     dune exec examples/fault_forensics.exe *)

let () =
  Printf.printf
    "Replaying the paper's fault catalog on a 7-node cluster (k=6, one \
     armed replica)\n\n";
  let detected = ref 0 in
  List.iter
    (fun scenario ->
      let trace = Jury_obs.Trace.create ~capacity:500_000 () in
      let report = Jury_experiments.Runner.run ~switches:12 ~trace scenario in
      Format.printf "%a@." Jury_experiments.Runner.pp_report report;
      Printf.printf "     %s\n" scenario.Jury_faults.Scenarios.description;
      (match report.Jury_experiments.Runner.matching_alarms with
      | alarm :: _ ->
          Format.printf "     attribution: %a@.@." Jury.Alarm.pp alarm;
          (* Reconstruct how the flagged trigger travelled through the
             system: replication fan-out, shadow executions, validator
             responses, verdict. *)
          let taint =
            Jury_controller.Types.Taint.to_string alarm.Jury.Alarm.taint
          in
          let roots = Jury_obs.Span.assemble (Jury_obs.Trace.events trace) in
          (match Jury_obs.Span.find roots ~taint with
          | Some root -> print_string (Jury_obs.Span.render_timeline root)
          | None -> Printf.printf "     (trigger %s not in trace)\n" taint);
          print_newline ()
      | [] -> Format.printf "     (no matching alarm)@.@.");
      if report.Jury_experiments.Runner.detected then incr detected)
    Jury_faults.Scenarios.all;
  Printf.printf "detected %d/%d scenarios\n" !detected
    (List.length Jury_faults.Scenarios.all)
