(* jury-cli: ad-hoc front-end to the JURY reproduction.

   Subcommands:
     list                         -- list fault scenarios
     scenario NAME [...]          -- run one fault scenario, print forensics
     matrix [...]                 -- run every scenario N times on a domain
                                     pool, print the detection matrix
     simulate [...]               -- benign run, print validation stats
     failover [...]               -- crash a replica, fail its switches over,
                                     verify service
     trace [...]                  -- run with the causal trace enabled,
                                     render a timeline, export JSONL
     validator-scale [...]        -- trigger-rate x shard-count sweep
     policy FILE                  -- parse and lint a policy file (.xml or DSL)
     check [...]                  -- property-based and coverage-guided
                                     fuzzing against the oracle battery
     mc [...]                     -- exhaustive small-scope schedule
                                     exploration (model checking)

   Shared flags (--nodes, --k, --seed, --shards, --batch-us, ...) are
   declared once in the Common table below and reused by every
   subcommand that understands them. *)

open Cmdliner
module Time = Jury_sim.Time
module Setup = Jury_experiments.Setup
module Runner = Jury_experiments.Runner

(* --- shared flag table ---------------------------------------------

   Every tunable that more than one subcommand understands is declared
   exactly once in [Common]; subcommands assemble their option set from
   these rows, so a flag has the same name, default and `--help` text
   everywhere it appears. New shared flags go here, not in a
   subcommand. *)

module Common = struct
  let nodes =
    Arg.(value & opt int 7 & info [ "n"; "nodes" ] ~doc:"Cluster size.")

  let k = Arg.(value & opt int 6 & info [ "k" ] ~doc:"Replication factor.")

  let faulty =
    Arg.(value & opt int 2 & info [ "faulty" ] ~doc:"Id of the faulty replica.")

  let seed = Arg.(value & opt int 11 & info [ "seed" ] ~doc:"RNG seed.")

  let switches =
    Arg.(value & opt int 24 & info [ "switches" ] ~doc:"Linear topology size.")

  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the sweep fan-out (default: \
                   \\$JURY_JOBS if set, else cores - 1; 1 = serial). \
                   Results are byte-identical whatever the value.")

  (* Validator tuning: the sharded/bounded/batched verdict state. The
     three flags travel together as one [tuning] value. *)

  type tuning = {
    shards : int;
    max_inflight : int option;
    batch : Time.t option;
  }

  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:"Validator shard-count hint, rounded up to a power of \
                   two (1 = seed behaviour).")

  let max_inflight =
    Arg.(value & opt (some int) None
         & info [ "max-inflight" ]
             ~doc:"High-water mark on undecided triggers; past it the \
                   oldest verdict epoch is force-expired with Overload \
                   verdicts instead of growing without bound.")

  let batch_us =
    Arg.(value & opt (some float) None
         & info [ "batch-us" ] ~docv:"US"
             ~doc:"Batch window in microseconds for response ingestion \
                   (absent = per-event delivery, seed behaviour).")

  let batch_of_us = Option.map Time.of_float_us

  let tuning =
    let mk shards max_inflight batch_us =
      { shards; max_inflight; batch = batch_of_us batch_us }
    in
    Term.(const mk $ shards $ max_inflight $ batch_us)

  (* Oracle selection is shared by `check --oracle` and `mc --oracle`;
     both resolve through the same name table, so the two subcommands
     accept exactly the same selectors and reject unknown ones with the
     same listing. *)

  let oracle =
    let families =
      String.concat ", "
        (List.map (Printf.sprintf "$(b,%s)") (Jury_check.Registry.families ()))
    in
    Arg.(value & opt (some string) None
         & info [ "oracle" ] ~docv:"SELECTOR"
             ~doc:("Restrict the battery to one oracle family (" ^ families
                  ^ ") or one oracle by name; $(b,--oracle) with an unknown \
                     selector lists every valid choice."))

  let resolve_oracles = function
    | None -> Jury_check.Registry.all ()
    | Some sel -> (
        match Jury_check.Registry.resolve sel with
        | Ok os -> os
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 2)
end

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Jury_faults.Scenarios.t) ->
        Printf.printf "%-28s %s  %s\n" s.Jury_faults.Scenarios.name
          (Jury_faults.Scenarios.klass_name s)
          (Jury.Alarm.fault_name s.Jury_faults.Scenarios.expected))
      Jury_faults.Scenarios.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the fault scenario catalog")
    Term.(const run $ const ())

(* --- scenario --- *)

let scenario_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let run name nodes k faulty seed switches (tuning : Common.tuning) =
    match Jury_faults.Scenarios.find name with
    | None ->
        Printf.eprintf "unknown scenario %S; try 'jury-cli list'\n" name;
        exit 2
    | Some scenario ->
        let report =
          Runner.run ~seed ~nodes ~k ~faulty ~switches
            ~shards:tuning.Common.shards
            ?max_inflight:tuning.Common.max_inflight
            ?batch:tuning.Common.batch scenario
        in
        Format.printf "%a@." Runner.pp_report report;
        List.iter
          (fun a -> Format.printf "  %a@." Jury.Alarm.pp a)
          report.Runner.matching_alarms;
        if not report.Runner.detected then exit 1
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Inject one fault scenario and report detection")
    Term.(const run $ name_arg $ Common.nodes $ Common.k $ Common.faulty
          $ Common.seed $ Common.switches $ Common.tuning)

(* --- matrix --- *)

let matrix_cmd =
  let repeats_arg =
    Arg.(value & opt int 5
         & info [ "repeats" ] ~doc:"Runs per scenario (paper: 10).")
  in
  let run nodes k faulty seed switches repeats jobs =
    Option.iter Jury_par.Pool.set_default_jobs jobs;
    let results =
      Runner.run_matrix ~seed ~repeats ~nodes ~k ~faulty ~switches
        Jury_faults.Scenarios.all
    in
    let missed = ref 0 in
    List.iter
      (fun ((scenario : Jury_faults.Scenarios.t), reports) ->
        let detected =
          List.length (List.filter (fun r -> r.Runner.detected) reports)
        in
        if detected < repeats then incr missed;
        Printf.printf "%-28s %s  %d/%d  %s\n" scenario.Jury_faults.Scenarios.name
          (Jury_faults.Scenarios.klass_name scenario)
          detected repeats
          (Jury.Alarm.fault_name scenario.Jury_faults.Scenarios.expected))
      results;
    if !missed > 0 then begin
      Printf.printf "%d scenario(s) with missed detections\n" !missed;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:"Run every fault scenario repeatedly on a domain pool and \
             print the detection matrix")
    Term.(const run $ Common.nodes $ Common.k $ Common.faulty $ Common.seed
          $ Common.switches $ repeats_arg $ Common.jobs)

(* --- simulate --- *)

let simulate_cmd =
  let profile_arg =
    Arg.(value
         & opt (enum [ ("onos", `Onos); ("odl", `Odl); ("ryu", `Ryu) ]) `Onos
         & info [ "profile" ]
             ~doc:"Controller flavour: onos, odl, or ryu (standalone — \
                   JURY validates in state-blind response-voting mode).")
  in
  let election_arg =
    Arg.(value & opt (some int) None
         & info [ "election-ms" ] ~docv:"MS"
             ~doc:"Enable dynamic master election with this heartbeat \
                   period (ms); a node missing 2 beats is declared dead \
                   and its switches fail over to the new term's master.")
  in
  let rate_arg =
    Arg.(value & opt float 1000. & info [ "rate" ] ~doc:"PACKET_IN rate.")
  in
  let duration_arg =
    Arg.(value & opt int 5 & info [ "duration" ] ~doc:"Seconds of workload.")
  in
  let drop_arg =
    Arg.(value & opt float 0.
         & info [ "drop" ]
             ~doc:"Per-message loss probability on every replication and \
                   response link (0 = reliable, seed behaviour).")
  in
  let duplicate_arg =
    Arg.(value & opt float 0.
         & info [ "duplicate" ]
             ~doc:"Probability a delivered message is duplicated.")
  in
  let jitter_arg =
    Arg.(value & opt float 0.
         & info [ "jitter-us" ]
             ~doc:"Mean exponential reorder jitter (microseconds) added to \
                   channel delays.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ]
             ~doc:"Retransmission rounds per straggling secondary (0 = \
                   none). Rounds are due at 0.4, 1.2, 2.8... x the \
                   validation timeout, so without a failover or an \
                   adaptive timeout only the first lands before the \
                   timeout decides: 2 or more behaves like 1.")
  in
  let degraded_arg =
    Arg.(value & opt (some int) None
         & info [ "degraded-quorum" ]
             ~doc:"Allow reduced-quorum ok-degraded verdicts at this quorum \
                   size.")
  in
  let run profile nodes k rate duration seed switches drop duplicate jitter_us
      retries degraded_quorum election_ms (tuning : Common.tuning) =
    let profile =
      match profile with
      | `Onos -> Jury_controller.Profile.onos
      | `Odl -> Jury_controller.Profile.odl
      | `Ryu -> Jury_controller.Profile.ryu
    in
    let retransmit =
      if retries > 0 then
        Some (Jury.Jury_config.retransmit ~max_retries:retries ())
      else None
    in
    let election =
      Option.map
        (fun ms ->
          { Jury_controller.Cluster.period = Time.ms ms; timeout_beats = 2 })
        election_ms
    in
    let env =
      Setup.make ~seed ~switches
        ~jury:
          (Jury.Jury_config.make ~k ~drop ~duplicate ~jitter_us ?retransmit
             ?degraded_quorum ~shards:tuning.Common.shards
             ?max_inflight:tuning.Common.max_inflight
             ?batch:tuning.Common.batch ?election ())
        ~profile ~nodes ()
    in
    let cluster = env.Setup.cluster in
    let deployment = Option.get env.Setup.deployment in
    let validator = Jury.Deployment.validator deployment in
    Jury_workload.Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
      ~packet_in_rate:rate ~duration:(Time.sec duration);
    Setup.run_for env (Time.sec (duration + 2));
    let report = Jury.Report.of_validator validator in
    print_string (Jury.Report.to_string report);
    if Jury_controller.Cluster.election_enabled cluster then
      Printf.printf "election: term %d, leader %d, alive [%s]\n"
        (Jury_controller.Cluster.current_term cluster)
        (Jury_controller.Cluster.leader cluster)
        (String.concat ", "
           (List.map string_of_int
              (Jury_controller.Cluster.alive_nodes cluster)));
    Printf.printf
      "overheads: store %d bytes, jury replication %d bytes, validator %d \
       bytes\n"
      (Jury_store.Fabric.bytes_replicated
         (Jury_controller.Cluster.fabric cluster))
      (Jury.Deployment.replication_bytes deployment)
      (Jury.Deployment.validator_bytes deployment);
    if drop > 0. || duplicate > 0. || jitter_us > 0. || retries > 0 then begin
      Format.printf "channels (all links): %a@." Jury.Channel.pp_stats
        (Jury.Deployment.channel_totals deployment);
      Printf.printf
        "validator: %d retransmit request(s), %d duplicate(s) discarded, %d \
         late, %d straggler slot(s), %d degraded verdict(s)\n"
        (Jury.Validator.count validator Retransmit)
        (Jury.Validator.duplicate_count validator)
        (Jury.Validator.late_count validator)
        (Jury.Validator.straggler_count validator)
        (Jury.Validator.count validator Degraded)
    end;
    if
      tuning.Common.shards > 1
      || tuning.Common.batch <> None
      || tuning.Common.max_inflight <> None
    then begin
      Printf.printf
        "validator: %d shard(s), %d batch(es) carrying %d response(s), %d \
         overload verdict(s)\n"
        (Jury.Validator.shard_count validator)
        (Jury.Validator.batch_count validator)
        (Jury.Validator.count validator Batch_response)
        (Jury.Validator.count validator Overload);
      for shard = 0 to Jury.Validator.shard_count validator - 1 do
        let count = Jury.Validator.count ~shard validator in
        Printf.printf "  shard %d: decided %d, batches %d, overloads %d\n"
          shard (count Decided) (count Batch) (count Overload)
      done
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a benign workload on a JURY-enhanced cluster, optionally \
             over lossy channels")
    Term.(const run $ profile_arg $ Common.nodes $ Common.k $ rate_arg
          $ duration_arg $ Common.seed $ Common.switches $ drop_arg
          $ duplicate_arg $ jitter_arg $ retries_arg $ degraded_arg
          $ election_arg $ Common.tuning)

(* --- failover --- *)

let failover_cmd =
  let run nodes k seed switches =
    let cluster =
      Setup.build ~seed ~switches
        ~profile:Jury_controller.Profile.onos ~nodes ()
    in
    let engine = Jury_controller.Cluster.engine cluster in
    let network = Jury_controller.Cluster.network cluster in
    let deployment =
      Jury.Jury_config.install cluster (Jury.Jury_config.make ~k ())
    in
    Setup.boot cluster;
    let victim = 1 in
    Printf.printf "crashing replica %d and failing over its switches...\n"
      victim;
    Jury_faults.Injector.crash cluster ~node:victim;
    Jury_controller.Cluster.fail_over cluster ~node:victim;
    Jury_sim.Engine.run engine
      ~until:(Time.add (Jury_sim.Engine.now engine) (Time.sec 2));
    Printf.printf "alive replicas: [%s]\n"
      (String.concat ", "
         (List.map string_of_int
            (Jury_controller.Cluster.alive_nodes cluster)));
    (* Push traffic through a reassigned switch to show service resumed. *)
    let h0 = Jury_net.Network.host network 0 in
    let h_last =
      Jury_net.Network.host network (switches - 1)
    in
    Jury_net.Host.send_tcp h0 ~dst_mac:(Jury_net.Host.mac h_last)
      ~dst_ip:(Jury_net.Host.ip h_last) ~src_port:9000 ~dst_port:80 ();
    Jury_sim.Engine.run engine
      ~until:(Time.add (Jury_sim.Engine.now engine) (Time.sec 2));
    Printf.printf "traffic after failover: %s\n"
      (if Jury_net.Host.received_count h_last > 0 then "delivered"
       else "LOST");
    print_string
      (Jury.Report.to_string
         (Jury.Report.of_validator (Jury.Deployment.validator deployment)))
  in
  Cmd.v
    (Cmd.info "failover"
       ~doc:"Crash a replica, fail its switches over, verify service")
    Term.(const run $ Common.nodes $ Common.k $ Common.seed $ Common.switches)

(* --- trace --- *)

let trace_cmd =
  let scenario_arg =
    Arg.(value & opt (some string) None
         & info [ "scenario" ]
             ~doc:"Fault scenario to run under the trace (default: a short \
                   benign ONOS workload).")
  in
  let taint_arg =
    Arg.(value & opt (some string) None
         & info [ "taint" ] ~doc:"Focus on one taint, e.g. ext:0:17.")
  in
  let node_arg =
    Arg.(value & opt (some int) None
         & info [ "node" ] ~doc:"Filter exported events by controller id.")
  in
  let phase_names =
    Jury_obs.Trace.(String.concat ", " (List.map phase_name all_phases))
  in
  let phase_arg =
    Arg.(value & opt (some string) None
         & info [ "phase" ]
             ~doc:("Filter exported events by phase (" ^ phase_names ^ ")."))
  in
  let jsonl_arg =
    Arg.(value & opt (some string) None
         & info [ "jsonl" ] ~docv:"FILE"
             ~doc:"Write the (filtered) events to FILE as JSONL.")
  in
  let run scenario nodes k seed switches taint_f node_f phase_f jsonl =
    let trace = Jury_obs.Trace.create ~capacity:500_000 () in
    let focus =
      match scenario with
      | Some name -> (
          match Jury_faults.Scenarios.find name with
          | None ->
              Printf.eprintf "unknown scenario %S; try 'jury-cli list'\n" name;
              exit 2
          | Some sc ->
              let report = Runner.run ~seed ~nodes ~k ~switches ~trace sc in
              Format.printf "%a@." Runner.pp_report report;
              (match report.Runner.matching_alarms with
              | a :: _ ->
                  Some
                    (Jury_controller.Types.Taint.to_string a.Jury.Alarm.taint)
              | [] -> None))
      | None ->
          let env =
            Setup.make ~seed ~switches ~trace
              ~jury:(Jury.Jury_config.make ~k ())
              ~profile:Jury_controller.Profile.onos ~nodes ()
          in
          Jury_workload.Flows.controlled_mix env.Setup.network
            ~rng:env.Setup.rng ~packet_in_rate:500. ~duration:(Time.sec 2);
          Setup.run_for env (Time.sec 3);
          None
    in
    let events = Jury_obs.Trace.events trace in
    let phase_f =
      match phase_f with
      | None -> None
      | Some p -> (
          match Jury_obs.Trace.phase_of_name p with
          | Some _ as ph -> ph
          | None ->
              Printf.eprintf "unknown phase %S; phases: %s\n" p phase_names;
              exit 2)
    in
    let filtered =
      Jury_obs.Export.query ?taint:taint_f ?node:node_f ?phase:phase_f events
    in
    let roots = Jury_obs.Span.assemble events in
    Printf.printf "trace: %d event(s) (%d dropped), %d after filters, %d root \
                   span(s)\n"
      (List.length events)
      (Jury_obs.Trace.dropped trace)
      (List.length filtered) (List.length roots);
    (match jsonl with
    | Some file ->
        Jury_obs.Export.write_file file filtered;
        Printf.printf "wrote %d event(s) to %s\n" (List.length filtered) file
    | None -> ());
    let target =
      match (taint_f, focus) with
      | Some taint, _ | None, Some taint -> Jury_obs.Span.find roots ~taint
      | None, None ->
          (* Longest closed root: the most interesting trigger. *)
          List.fold_left
            (fun best root ->
              match (Jury_obs.Span.duration_ns root, best) with
              | None, _ -> best
              | Some d, Some (best_d, _) when d <= best_d -> best
              | Some d, _ -> Some (d, root))
            None roots
          |> Option.map snd
    in
    match target with
    | None -> print_endline "no matching root span to render"
    | Some root -> print_string (Jury_obs.Span.render_timeline root)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run with the causal trace enabled and render a trigger timeline")
    Term.(const run $ scenario_arg $ Common.nodes $ Common.k $ Common.seed
          $ Common.switches $ taint_arg $ node_arg $ phase_arg $ jsonl_arg)

(* --- validator-scale --- *)

let validator_scale_cmd =
  let rates_arg =
    Arg.(value & opt (list float) [ 1000.; 3000. ]
         & info [ "rates" ] ~docv:"R1,R2,..."
             ~doc:"PACKET_IN rates to sweep.")
  in
  let shards_list_arg =
    Arg.(value & opt (list int) [ 1; 2; 4 ]
         & info [ "shard-counts" ] ~docv:"S1,S2,..."
             ~doc:"Shard counts to sweep (each rounded up to a power of \
                   two).")
  in
  let duration_arg =
    Arg.(value & opt int 3 & info [ "duration" ] ~doc:"Seconds of workload.")
  in
  let run seed duration rates shard_counts jobs max_inflight batch_us =
    Option.iter Jury_par.Pool.set_default_jobs jobs;
    let rows =
      Jury_experiments.Figures.validator_scale ~seed
        ~duration:(Time.sec duration) ~rates ~shard_counts ?max_inflight
        ?batch:(Common.batch_of_us batch_us) ()
    in
    Printf.printf "%-8s %-7s %-8s %-11s %-8s %s\n" "rate" "shards" "decided"
      "verdicts/s" "batches" "per-shard batches";
    List.iter
      (fun (r : Jury_experiments.Figures.scale_row) ->
        Printf.printf "%-8.0f %-7d %-8d %-11.0f %-8d %s\n"
          r.Jury_experiments.Figures.vs_rate r.Jury_experiments.Figures.vs_shards
          r.Jury_experiments.Figures.vs_verdicts
          r.Jury_experiments.Figures.vs_verdicts_per_s
          r.Jury_experiments.Figures.vs_batches
          (String.concat "/"
             (List.map string_of_int
                r.Jury_experiments.Figures.vs_shard_batches)))
      rows
  in
  Cmd.v
    (Cmd.info "validator-scale"
       ~doc:"Sweep trigger rate x validator shard count with batched \
             response ingestion and print per-shard throughput")
    Term.(const run $ Common.seed $ duration_arg $ rates_arg $ shards_list_arg
          $ Common.jobs $ Common.max_inflight $ Common.batch_us)

(* --- policy --- *)

let policy_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let run file =
    let src =
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    let parsed =
      if Filename.check_suffix file ".xml" then Jury_policy.Parse.xml src
      else Jury_policy.Parse.dsl src
    in
    match parsed with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 1
    | Ok rules ->
        Printf.printf "%d rule(s):\n" (List.length rules);
        List.iter
          (fun r -> Format.printf "  %a@." Jury_policy.Ast.pp_rule r)
          rules;
        List.iter print_endline (Jury_policy.Parse.lint rules)
  in
  Cmd.v (Cmd.info "policy" ~doc:"Parse and lint a policy file")
    Term.(const run $ file_arg)

let check_cmd =
  let cases_arg =
    Arg.(value & opt int 100
         & info [ "cases" ] ~docv:"N" ~doc:"Number of random cases to fuzz.")
  in
  let max_shrink_arg =
    Arg.(value & opt int 200
         & info [ "max-shrink" ] ~docv:"N"
             ~doc:"Re-execution budget for minimising each failing case \
                   (0 disables shrinking).")
  in
  let fuzz_arg =
    Arg.(value & flag
         & info [ "fuzz" ]
             ~doc:"Coverage-guided mode: seed a corpus with blind cases, \
                   then spend the remaining $(b,--budget) mutating corpus \
                   entries (including the stateful fault levers — \
                   crash-rejoin, Byzantine, store partition, policy churn — \
                   that blind generation never draws), admitting mutants \
                   that exhibit new behaviour features.")
  in
  let budget_arg =
    Arg.(value & opt int 60
         & info [ "budget" ] ~docv:"N"
             ~doc:"Guided mode: total primary executions (seeding included).")
  in
  let seed_cases_arg =
    Arg.(value & opt (some int) None
         & info [ "seed-cases" ] ~docv:"N"
             ~doc:"Guided mode: blind cases seeding the corpus (default \
                   three quarters of the budget).")
  in
  let corpus_out_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus-out" ] ~docv:"FILE"
             ~doc:"Guided mode: write the final corpus (one replayable \
                   lineage per line, with its novel features) to FILE.")
  in
  let compare_blind_arg =
    Arg.(value & flag
         & info [ "compare-blind" ]
             ~doc:"Guided mode: also run the same budget of purely blind \
                   cases, report both feature counts, and exit 1 when \
                   guided coverage is below blind coverage.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"LINEAGE"
             ~doc:"Replay one corpus lineage (e.g. 'seed=42 \
                   fault-inject@7') and run the oracle battery on the \
                   reconstructed case.")
  in
  let run_replay lineage oracles max_shrink =
    match Jury_check.Corpus.lineage_of_string lineage with
    | Error msg ->
        Printf.eprintf "bad lineage: %s\n" msg;
        exit 2
    | Ok (base_seed, trace) ->
        let case = Jury_check.Corpus.replay_trace ~base_seed ~trace in
        Printf.printf "replaying %s\n  case: %s\n%!" lineage
          (Format.asprintf "%a" Jury_check.Case.pp case);
        (match Jury_check.Oracle.check_case ~oracles case with
        | [] -> Printf.printf "case upholds every selected invariant\n"
        | violations ->
            let f =
              { Jury_check.Fuzz.lineage; case; violations;
                shrink =
                  (if max_shrink <= 0 then None
                   else
                     Some
                       (Jury_check.Shrink.minimise ~max_steps:max_shrink
                          ~oracles case violations)) }
            in
            print_endline (Jury_check.Fuzz.repro f);
            exit 1)
  in
  let run_fuzz budget seed seed_cases corpus_out compare_blind selector
      max_shrink =
    let oracles =
      match selector with
      | None -> Jury_check.Fuzz.default_oracles ()
      | Some _ -> Common.resolve_oracles selector
    in
    Printf.printf
      "guided fuzzing: budget %d from seed %d (%d oracle(s))\n%!" budget seed
      (List.length oracles);
    let summary =
      Jury_check.Fuzz.run ~log:print_endline ~oracles ?seed_cases ~max_shrink
        ~budget ~seed ()
    in
    let corpus = summary.Jury_check.Fuzz.corpus in
    Printf.printf
      "guided: %d execution(s), corpus %d, %d coverage feature(s) (blind \
       baseline after seeding: %d)\n"
      summary.Jury_check.Fuzz.executed
      (Jury_check.Corpus.size corpus)
      (Jury_check.Corpus.feature_count corpus)
      summary.Jury_check.Fuzz.blind_features;
    (match corpus_out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        List.iter
          (fun (e : Jury_check.Corpus.entry) ->
            Printf.fprintf oc "%s %s # novel: %s\n" e.Jury_check.Corpus.id
              (Jury_check.Corpus.lineage e)
              (String.concat "," e.Jury_check.Corpus.novel))
          (Jury_check.Corpus.entries corpus);
        close_out oc;
        Printf.printf "corpus written to %s\n" file);
    let guided = Jury_check.Corpus.feature_count corpus in
    let below_blind =
      compare_blind
      &&
      let blind =
        (Jury_check.Fuzz.run ~oracles:[] ~seed_cases:budget ~budget ~seed ())
          .Jury_check.Fuzz.blind_features
      in
      Printf.printf "same-budget blind: %d feature(s); guided: %d (%+d)\n"
        blind guided (guided - blind);
      guided < blind
    in
    if summary.Jury_check.Fuzz.failures <> [] then begin
      Printf.printf "%d mutant(s) FAILED the battery\n"
        (List.length summary.Jury_check.Fuzz.failures);
      exit 1
    end;
    if below_blind then begin
      print_endline "guided coverage FELL BELOW the same-budget blind run";
      exit 1
    end
  in
  let run cases seed jobs max_shrink selector fuzz budget seed_cases
      corpus_out compare_blind replay =
    match replay with
    | Some lineage ->
        run_replay lineage (Common.resolve_oracles selector) max_shrink
    | None ->
        if fuzz then
          run_fuzz budget seed seed_cases corpus_out compare_blind selector
            max_shrink
        else begin
          let oracles = Common.resolve_oracles selector in
          let jobs = Option.value jobs ~default:1 in
          Printf.printf
            "fuzzing %d case(s) from seed %d (%d oracle(s), %d job(s))\n%!"
            cases seed (List.length oracles) jobs;
          let summary =
            Jury_check.Harness.run ~log:print_endline ~jobs ~oracles
              ~max_shrink ~cases ~seed ()
          in
          match summary.Jury_check.Harness.failures with
          | [] ->
              Printf.printf "all %d case(s) upheld every invariant\n"
                summary.Jury_check.Harness.cases
          | fs ->
              Printf.printf "%d of %d case(s) FAILED\n" (List.length fs)
                summary.Jury_check.Harness.cases;
              exit 1
        end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Property-based fuzzing of the validator invariants"
       ~man:
         [ `S Manpage.s_description;
           `P "Generates random cases (topology, workload, fault schedule, \
               channel and validator configuration), runs each through the \
               full deployment, and checks the oracle battery: verdict \
               conservation, shard-count independence, batching and \
               serial/parallel equivalence, channel counter conservation \
               and compiled-vs-interpreted policy agreement.";
           `P "Case $(i,i) of a run with --seed $(i,s) is generated from \
               seed $(i,s+i); every failure report prints that per-case \
               seed, and $(b,check --cases 1 --seed) $(i,s+i) replays the \
               case bit-for-bit. Failing cases are shrunk to a minimal \
               repro and printed as a corpus entry for test/repros.";
           `P "$(b,--fuzz) switches to coverage-guided mode: blind cases \
               seed a corpus, mutation explores from it (fault-schedule \
               splice/duplicate/shift/inject — including the stateful \
               crash-rejoin, Byzantine, partition and policy-churn levers \
               blind mode never draws — plus workload bursts and knob \
               churn), and a mutant is kept iff it exhibits a behaviour \
               feature no earlier run did. Every corpus entry replays \
               bit-identically from its printed lineage via \
               $(b,check --replay)." ])
    Term.(const run $ cases_arg $ Common.seed $ Common.jobs $ max_shrink_arg
          $ Common.oracle $ fuzz_arg $ budget_arg $ seed_cases_arg
          $ corpus_out_arg $ compare_blind_arg $ replay_arg)

let mc_cmd =
  let module Explorer = Jury_mc.Explorer in
  let module Trace = Jury_mc.Trace in
  let switches_arg =
    Arg.(value & opt int 2
         & info [ "switches" ] ~docv:"N"
             ~doc:"Switches in the explored deployment (1-3).")
  in
  let triggers_arg =
    Arg.(value & opt int 3
         & info [ "triggers" ] ~docv:"N"
             ~doc:"Approximate trigger budget of the workload (1-5).")
  in
  let nodes_arg =
    Arg.(value & opt int 3
         & info [ "nodes" ] ~docv:"N" ~doc:"Cluster size (2-5).")
  in
  let max_schedules_arg =
    Arg.(value & opt int 1000
         & info [ "max-schedules" ] ~docv:"N"
             ~doc:"Stop after executing N schedules (bounded mode; the \
                   report says when the bound truncated enumeration).")
  in
  let max_depth_arg =
    Arg.(value & opt (some int) None
         & info [ "max-depth" ] ~docv:"N"
             ~doc:"Stop branching past N choice points per schedule \
                   (deeper ties take the default order).")
  in
  let no_prune_arg =
    Arg.(value & flag
         & info [ "no-prune" ]
             ~doc:"Disable independence pruning: enumerate every \
                   tie-break order naively. Only useful to measure what \
                   pruning saves.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"TRACE"
             ~doc:"Replay one schedule instead of exploring: a \
                   dot-separated choice trace as printed in divergence \
                   reports ($(b,-) for the default FIFO schedule).")
  in
  let minimise_arg =
    Arg.(value & flag
         & info [ "minimise" ]
             ~doc:"On divergence, shrink the case and trace to a minimal \
                   counterexample and print it as a repro corpus entry.")
  in
  let run seed switches triggers nodes selector max_schedules max_depth
      no_prune trace_str minimise =
    let case =
      try Explorer.demo_case ~seed ~switches ~triggers ~nodes ()
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    in
    (* `--oracle none` skips the battery (schedule-blindness only);
       anything else goes through the shared name table. *)
    let oracles =
      match selector with
      | Some "none" -> []
      | sel -> Common.resolve_oracles sel
    in
    let max_depth = Option.value max_depth ~default:max_int in
    match trace_str with
    | Some s -> (
        match Trace.of_string s with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            exit 2
        | Ok trace -> (
            let outcome, div = Explorer.replay ~oracles case trace in
            let count = Jury_check.Run.count outcome in
            Printf.printf
              "replayed schedule %s: %d decided, %d fault(s), %d \
               unverifiable, %d degraded\n"
              (Trace.to_string trace) (count Decided) (count Faulty)
              (count Unverifiable) (count Degraded);
            match div with
            | None ->
                Printf.printf
                  "schedule agrees with the FIFO reference (%d oracle(s) \
                   green)\n"
                  (List.length oracles)
            | Some d ->
                Printf.printf "DIVERGENCE %s\n"
                  (Explorer.describe_divergence d);
                exit 1))
    | None -> (
        Format.printf "mc: exploring %a@." Jury_check.Case.pp case;
        let r =
          Explorer.explore ~prune:(not no_prune) ~max_schedules ~max_depth
            ~oracles case
        in
        let s = r.Explorer.rep_stats in
        let count = Jury_check.Run.count r.Explorer.rep_reference in
        Printf.printf
          "%s%d schedule(s) explored (%d choice points, deepest %d): %d \
           branch(es) taken, %d pruned as independent\n"
          (if s.Explorer.truncated then "TRUNCATED: " else "")
          s.Explorer.explored s.Explorer.choice_points s.Explorer.deepest
          s.Explorer.branched s.Explorer.pruned;
        Printf.printf
          "reference schedule: %d decided, %d fault(s), %d oracle(s) per \
           schedule\n"
          (count Decided) (count Faulty) (List.length oracles);
        match r.Explorer.rep_divergences with
        | [] ->
            Printf.printf
              "every explored schedule agrees with the FIFO reference\n"
        | ds ->
            Printf.printf "%d DIVERGENT schedule(s):\n" (List.length ds);
            List.iter
              (fun d ->
                Printf.printf "  %s\n" (Explorer.describe_divergence d))
              ds;
            if minimise then begin
              match Explorer.minimise ~max_schedules ~max_depth ~oracles case with
              | Error msg -> Printf.printf "minimise: %s\n" msg
              | Ok m ->
                  Printf.printf
                    "minimised to trace %s (%d step(s), %d reduction(s)); \
                     repro:\n%s\n"
                    (Trace.to_string m.Explorer.min_trace)
                    m.Explorer.min_steps m.Explorer.min_shrunk
                    (Jury_check.Case.to_ocaml m.Explorer.min_case)
            end;
            exit 1)
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Exhaustively explore event-schedule tie-breaks on a small \
             deployment"
       ~man:
         [ `S Manpage.s_description;
           `P "Enumerates every tie-break order of the event queue for a \
               small benign deployment (jitter-free latencies, so \
               same-instant events are the only scheduling freedom), \
               pruning orders of provably-commuting events via declared \
               footprints, and checks on every schedule that JURY's \
               verdicts match the default schedule and that the oracle \
               battery holds.";
           `P "A divergence report prints a compact choice trace; \
               $(b,mc --trace) replays exactly that schedule, and \
               $(b,mc --minimise) shrinks case and trace to a minimal \
               repro." ])
    Term.(const run $ Common.seed $ switches_arg $ triggers_arg $ nodes_arg
          $ Common.oracle $ max_schedules_arg $ max_depth_arg $ no_prune_arg
          $ trace_arg $ minimise_arg)

let () =
  let info =
    Cmd.info "jury-cli"
      ~doc:"Ad-hoc driver for the JURY controller-validation reproduction"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; scenario_cmd; matrix_cmd; simulate_cmd; failover_cmd;
            trace_cmd; validator_scale_cmd; policy_cmd; check_cmd; mc_cmd ]))
