(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§VII), plus the DESIGN.md ablations and a Bechamel
   micro-benchmark section for the hot paths.

   Usage:
     dune exec bench/main.exe                 -- run everything (quick)
     dune exec bench/main.exe -- fig4a fig4f  -- selected experiments
     dune exec bench/main.exe -- --full       -- paper-length runs
     dune exec bench/main.exe -- --jobs 4     -- fan sweep points out on
                                                 4 worker domains
     dune exec bench/main.exe -- --json BENCH_results.json
                                              -- machine-readable results *)

open Jury_experiments
module Time = Jury_sim.Time
module Table = Jury_stats.Table
module Cdf = Jury_stats.Cdf

let section title = Printf.printf "\n=== %s ===\n" title

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

let print_cdf_series ~unit_label (series : Figures.cdf_series list) =
  List.iter
    (fun (s : Figures.cdf_series) ->
      Printf.printf "  -- %s: n=%d  p50=%.1f%s  p95=%.1f%s\n" s.label
        s.samples s.p50_ms unit_label s.p95_ms unit_label)
    series;
  let curves =
    List.filter_map
      (fun (s : Figures.cdf_series) ->
        if s.samples = 0 then None else Some (s.label, s.cdf))
      series
  in
  if curves <> [] then
    print_string
      (Jury_stats.Ascii_plot.cdf ~x_label:unit_label curves)

let print_xy_series (series : Figures.xy_series list) ~x_label ~y_label =
  let t =
    Table.create
      ~header:
        (x_label
        :: List.map
             (fun (s : Figures.xy_series) -> s.series_label ^ " " ^ y_label)
             series)
  in
  (* Index every series into an array once: List.nth per cell would
     rescan each point list for every row (quadratic in sweep size). *)
  let columns =
    List.map
      (fun (s : Figures.xy_series) -> Array.of_list s.points)
      series
  in
  (match columns with
  | [] -> ()
  | first :: _ ->
      Array.iteri
        (fun i (x, _) ->
          Table.add_row t
            (Printf.sprintf "%.0f" x
            :: List.map
                 (fun column -> Printf.sprintf "%.0f" (snd column.(i)))
                 columns))
        first);
  Table.print t;
  print_string
    (Jury_stats.Ascii_plot.xy ~x_label ~y_label
       (List.map (fun (s : Figures.xy_series) -> (s.series_label, s.points))
          series))

(* --- Experiment wrappers --- *)

let fig4a ~full () =
  section "Fig 4a: ONOS detection-time CDFs (k secondaries, m faulty)";
  note "paper: p95 ~97ms (k=6,m=0), ~129ms (k=6,m=2); grows with k and m";
  let duration = Time.sec (if full then 60 else 10) in
  print_cdf_series ~unit_label:"ms" (Figures.fig4a ~duration ())

let fig4b ~full () =
  section "Fig 4b: ONOS detection times vs PACKET_IN rate (k=6, m=0)";
  note "paper: detection time increases with PACKET_IN rate";
  let duration = Time.sec (if full then 60 else 10) in
  print_cdf_series ~unit_label:"ms" (Figures.fig4b ~duration ())

let fig4c ~full () =
  section "Fig 4c: ODL detection-time CDFs (k secondaries, m faulty)";
  note "paper: ~500ms (k=6,m=0), ~700ms (k=6,m=2) at 500 pps";
  let duration = Time.sec (if full then 60 else 10) in
  print_cdf_series ~unit_label:"ms" (Figures.fig4c ~duration ())

let fig4d ~full () =
  section "Fig 4d: ONOS detection times on benign traces (k=6, m=2)";
  note "paper: 0.35%% false positives across LBNL/UNIV/SMIA";
  let duration = Time.sec (if full then 60 else 10) in
  let results = Figures.fig4d ~duration () in
  let fps =
    List.map
      (fun ((s : Figures.cdf_series), fp) ->
        Printf.printf "  -- %s: n=%d p50=%.1fms p95=%.1fms FP=%.2f%%\n"
          s.label s.samples s.p50_ms s.p95_ms (100. *. fp);
        fp)
      results
  in
  let mean_fp = List.fold_left ( +. ) 0. fps /. float_of_int (List.length fps) in
  Printf.printf "  => overall false-positive rate: %.2f%% (paper: 0.35%%)\n"
    (100. *. mean_fp)

let detection ~full () =
  section "Detection matrix (Sec VII-A1): every fault scenario, n=7 k=6 m=2";
  note "paper: all faults detected in 10/10 runs within the timeout";
  let repeats = if full then 10 else 5 in
  let t =
    Table.create
      ~header:[ "scenario"; "class"; "detected"; "mean ms"; "alarm" ]
  in
  List.iter
    (fun (r : Figures.detection_row) ->
      Table.add_row t
        [ r.scenario_name;
          r.klass;
          Printf.sprintf "%d/%d" r.detected r.repeats;
          Printf.sprintf "%.1f" r.mean_ms;
          r.expected ])
    (Figures.detection_matrix ~repeats ());
  Table.print t

let fig4e ~full () =
  section "Fig 4e: Cbench PACKET_IN bursts overwhelm ONOS";
  note "paper: FLOW_MOD throughput lags the burst then collapses to ~0";
  let duration = Time.sec (if full then 50 else 20) in
  let rows = Figures.fig4e ~duration () in
  let t = Table.create ~header:[ "t (s)"; "PacketIn/s"; "FlowMod/s" ] in
  List.iteri
    (fun i (ts, pi, fm) ->
      if i mod 2 = 0 then
        Table.add_row t
          [ Printf.sprintf "%.0f" ts;
            Printf.sprintf "%.0f" pi;
            Printf.sprintf "%.0f" fm ])
    rows;
  Table.print t

let fig4f ~full () =
  section "Fig 4f: vanilla ONOS FLOW_MOD vs PACKET_IN rate, n=1/3/5/7";
  note "paper: saturates ~5K at ~7.5K pps; n=7 within 8%% of n=1";
  let duration = Time.sec (if full then 10 else 3) in
  print_xy_series (Figures.fig4f ~duration ()) ~x_label:"PacketIn/s"
    ~y_label:"FlowMod/s"

let fig4g ~full () =
  section "Fig 4g: vanilla ODL FLOW_MOD vs PACKET_IN rate, n=1/3/5/7";
  note "paper: n=1 peaks ~800, n=7 drops to ~140 FLOW_MOD/s";
  let duration = Time.sec (if full then 10 else 3) in
  print_xy_series (Figures.fig4g ~duration ()) ~x_label:"PacketIn/s"
    ~y_label:"FlowMod/s"

let fig4h ~full () =
  section "Fig 4h: JURY impact on ONOS throughput (n=7, k=2/4/6)";
  note "paper: <11%% FLOW_MOD throughput drop at full replication";
  let duration = Time.sec (if full then 10 else 3) in
  let series = Figures.fig4h ~duration () in
  print_xy_series series ~x_label:"PacketIn/s" ~y_label:"FlowMod/s";
  match series with
  | base :: rest when base.points <> [] ->
      let last_of (s : Figures.xy_series) =
        snd (List.nth s.points (List.length s.points - 1))
      in
      let base_rate = last_of base in
      List.iter
        (fun (s : Figures.xy_series) ->
          Printf.printf "  => %s: %.1f%% drop vs vanilla\n" s.series_label
            (100. *. (base_rate -. last_of s) /. base_rate))
        rest
  | _ -> ()

let fig4i ~full () =
  section "Fig 4i: ODL decapsulation overhead (n=7, k=6)";
  note "paper: 80%% of packets under 150us across all rates";
  let duration = Time.sec (if full then 10 else 5) in
  let series = Figures.fig4i ~duration () in
  List.iter
    (fun (s : Figures.cdf_series) ->
      let p80 =
        if s.samples = 0 then 0. else Cdf.value_at s.cdf 0.8
      in
      Printf.printf "  -- %s: n=%d p50=%.1fus p80=%.1fus p95=%.1fus\n" s.label
        s.samples s.p50_ms p80 s.p95_ms)
    series

let print_profile_rows (rows : Figures.profile_row list) =
  let t =
    Table.create
      ~header:
        [ "profile"; "mode"; "rate"; "p50 ms"; "p95 ms"; "base FM/s";
          "JURY FM/s"; "overhead" ]
  in
  List.iter
    (fun (r : Figures.profile_row) ->
      Table.add_row t
        [ r.pr_name;
          (if r.pr_clustered then "clustered" else "standalone");
          Printf.sprintf "%.0f" r.pr_rate;
          Printf.sprintf "%.1f" r.pr_detection.p50_ms;
          Printf.sprintf "%.1f" r.pr_detection.p95_ms;
          Printf.sprintf "%.0f" r.pr_base_fm_rate;
          Printf.sprintf "%.0f" r.pr_jury_fm_rate;
          Printf.sprintf "%.1f%%" r.pr_overhead_pct ])
    rows;
  Table.print t

let profiles ~full () =
  section "Controller profiles: detection + throughput, ONOS/ODL/Ryu";
  note "clustered profiles validate state-aware against the shared \
        store; the standalone Ryu-style profile runs JURY in \
        state-blind response-voting mode";
  let duration = Time.sec (if full then 10 else 3) in
  let rows = Figures.profile_comparison ~duration () in
  print_profile_rows rows;
  print_cdf_series ~unit_label:"ms"
    (List.map (fun (r : Figures.profile_row) -> r.pr_detection) rows)

(* One experiment per profile so the --json record (and the bench
   gate) carries a separate events_per_sec figure for each controller
   flavour. *)
let profile_one name ~full () =
  section (Printf.sprintf "Controller profile: %s" name);
  let duration = Time.sec (if full then 10 else 3) in
  print_profile_rows (Figures.profile_comparison ~duration ~names:[ name ] ())

let overhead ~full () =
  section "Network overhead (Sec VII-B2): store vs JURY traffic";
  note
    "paper: ONOS@5.5Kpps Hazelcast 142 Mbps vs JURY 14.2/25.2/36.1 Mbps \
     (k=2/4/6); ODL@500pps Infinispan 37 vs JURY 12 Mbps";
  let duration = Time.sec (if full then 10 else 5) in
  let t =
    Table.create
      ~header:
        [ "config"; "store Mbps"; "JURY Mbps"; "chatter Mbps"; "JURY share" ]
  in
  List.iter
    (fun (r : Figures.overhead_row) ->
      Table.add_row t
        [ r.config;
          Printf.sprintf "%.1f" r.store_mbps;
          Printf.sprintf "%.1f" r.jury_mbps;
          Printf.sprintf "%.1f" r.chatter_mbps;
          Table.cell_pct r.jury_fraction ])
    (Figures.overhead ~duration ());
  Table.print t

let policy_scaling ~full:_ () =
  section "Policy validation scaling (Sec VII-B2(3))";
  note "paper: 100 -> 200us, 1K -> 1.2ms, 10K -> 11.2ms (linear)";
  let t = Table.create ~header:[ "policies"; "validation us" ] in
  List.iter
    (fun (n, us) ->
      Table.add_row t [ string_of_int n; Printf.sprintf "%.1f" us ])
    (Figures.policy_scaling ());
  Table.print t;
  Printf.printf "  => PACKET_OUT pipeline peak (model): %.0f msg/s (paper: ~220K)\n"
    (Figures.packet_out_peak ())

(* Filled by [policy_scale] and [micro] so --json can report ns/op
   figures; both append. *)
let micro_rows : (string * float) list ref = ref []

let policy_scale ~full () =
  section "Policy compiler scaling: interpreted vs compiled check cost";
  note "per-response cost must stay ~flat in rule count on the compiled \
        path (dispatch trie), vs linear on the interpreter";
  let sizes =
    if full then [ 100; 500; 1000; 2000; 4000; 8000 ]
    else [ 100; 500; 1000; 2000; 4000 ]
  in
  let caches =
    [| Jury_store.Cache_names.flowsdb; Jury_store.Cache_names.linksdb;
       Jury_store.Cache_names.edgedb; Jury_store.Cache_names.hostdb;
       Jury_store.Cache_names.arpdb |]
  in
  let ops = [| Jury_store.Event.Create; Jury_store.Event.Update;
               Jury_store.Event.Delete |] in
  (* A structured admin policy: mostly cache/controller/op-specific deny
     rules with never-matching entry globs (worst case: every applicable
     rule's residual is evaluated), plus periodic wildcard selectors so
     the trie's fallthrough branches carry weight too. *)
  let make_rules n =
    List.init n (fun i ->
        Jury_policy.Ast.rule
          ~name:(Printf.sprintf "p%d" i)
          ?cache:(if i mod 37 = 0 then None else Some caches.(i mod 5))
          ~controller:
            (if i mod 41 = 0 then Jury_policy.Ast.Any_controller
             else Jury_policy.Ast.Controller_id (i mod 8))
          ~operation:
            (if i mod 31 = 0 then Jury_policy.Ast.Any_op
             else Jury_policy.Ast.Op_is ops.(i mod 3))
          ~entry:
            (Jury_policy.Ast.Entry_glob
               { key = Jury_policy.Pattern.compile
                   (Printf.sprintf "never-%d-*" i);
                 value = Jury_policy.Pattern.compile "*" })
          ())
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
  let time_us ~iterations f =
    for _ = 1 to 50 do ignore (f ()) done;
    let t0 = Sys.time () in
    for _ = 1 to iterations do ignore (f ()) done;
    (Sys.time () -. t0) /. float_of_int iterations *. 1e6
  in
  let t =
    Table.create
      ~header:
        [ "rules"; "load ms"; "compile ms"; "interp us"; "compiled us";
          "speedup"; "leaves"; "max leaf" ]
  in
  let rows =
    List.map
      (fun n ->
        let rules = make_rules n in
        let t0 = Sys.time () in
        let engine = Jury_policy.Engine.create rules in
        let load_ms = (Sys.time () -. t0) *. 1e3 in
        let t0 = Sys.time () in
        let compiled = Jury_policy.Engine.compiled engine in
        let compile_ms = (Sys.time () -. t0) *. 1e3 in
        let interp_us =
          time_us ~iterations:(max 500 (10_000_000 / n)) (fun () ->
              Jury_policy.Engine.check engine query)
        in
        let compiled_us =
          time_us ~iterations:200_000 (fun () ->
              Jury_policy.Compiled.check compiled query)
        in
        let st = Jury_policy.Compiled.stats compiled in
        Table.add_row t
          [ string_of_int n;
            Printf.sprintf "%.1f" load_ms;
            Printf.sprintf "%.1f" compile_ms;
            Printf.sprintf "%.2f" interp_us;
            Printf.sprintf "%.3f" compiled_us;
            Printf.sprintf "%.0fx" (interp_us /. compiled_us);
            Printf.sprintf "%d/%d" st.Jury_policy.Compiled.st_distinct_leaves
              st.Jury_policy.Compiled.st_leaves;
            string_of_int st.Jury_policy.Compiled.st_max_leaf ];
        micro_rows :=
          !micro_rows
          @ [ (Printf.sprintf "policy-scale-%d-interpreted" n,
               interp_us *. 1e3);
              (Printf.sprintf "policy-scale-%d-compiled" n,
               compiled_us *. 1e3) ];
        (n, interp_us, compiled_us))
      sizes
  in
  Table.print t;
  match (rows, List.rev rows) with
  | (n0, _, c0) :: _, (nl, il, cl) :: _ ->
      note "=> compiled %.3fus at %d rules vs %.3fus at %d (%.1fx growth); \
            interpreter %.2fus at %d (%.0fx slower)"
        c0 n0 cl nl (cl /. c0) il nl (il /. cl)
  | _ -> ()

let ablations ~full () =
  section "Ablation: state-aware consensus vs naive majority";
  let t =
    Table.create ~header:[ "mode"; "decided"; "false alarms"; "unverifiable" ]
  in
  List.iter
    (fun (mode, decided, faults, unver) ->
      Table.add_row t
        [ mode; string_of_int decided; string_of_int faults;
          string_of_int unver ])
    (Figures.ablation_state_aware ());
  Table.print t;
  section "Ablation: validation-timeout trade-off (Sec VIII-1)";
  let t =
    Table.create ~header:[ "timeout ms"; "FP rate"; "p95 detection ms" ]
  in
  List.iter
    (fun (ms, fp, p95) ->
      Table.add_row t
        [ string_of_int ms;
          Table.cell_pct fp;
          Printf.sprintf "%.1f" p95 ])
    (Figures.ablation_timeout ());
  Table.print t;
  section "Ablation: random vs static secondary selection";
  let repeats = if full then 10 else 5 in
  let t = Table.create ~header:[ "selection"; "detected"; "runs" ] in
  List.iter
    (fun (label, detected, total) ->
      Table.add_row t [ label; string_of_int detected; string_of_int total ])
    (Figures.ablation_secondary_selection ~repeats ());
  Table.print t;
  section "Extension (Sec VIII-1): adaptive validation timeout";
  let t =
    Table.create
      ~header:[ "theta-tau"; "decided"; "false alarms"; "p95 ms"; "final theta ms" ]
  in
  List.iter
    (fun (label, decided, faults, p95, theta) ->
      Table.add_row t
        [ label; string_of_int decided; string_of_int faults;
          Printf.sprintf "%.1f" p95; Printf.sprintf "%.1f" theta ])
    (Figures.ablation_adaptive_timeout ());
  Table.print t;
  section
    "Extension (Sec VIII-2): non-deterministic (ECMP) app — the paper's \
     admitted limitation";
  let t =
    Table.create
      ~header:[ "mode"; "decided"; "false alarms"; "labelled non-det" ]
  in
  List.iter
    (fun (label, decided, faults, nondet) ->
      Table.add_row t
        [ label; string_of_int decided; string_of_int faults;
          string_of_int nondet ])
    (Figures.ablation_nondeterminism ());
  Table.print t

let lossy ~full () =
  section "Lossy replication channel: retransmission + degraded quorum";
  note "10%% drop, ONOS k=2; 'lossy+retx' should cut spurious \
        timeout/unverifiable verdicts vs 'lossy'";
  let duration = Time.sec (if full then 30 else 5) in
  let rows = Figures.lossy_channel ~duration () in
  let t =
    Table.create
      ~header:
        [ "mode"; "decided"; "timeouts"; "unverif"; "degraded"; "retx";
          "sent"; "dropped"; "dup"; "p50 ms"; "p95 ms" ]
  in
  List.iter
    (fun (r : Figures.channel_row) ->
      Table.add_row t
        [ r.mode;
          string_of_int r.c_decided;
          string_of_int r.c_timeout_alarms;
          string_of_int r.c_unverifiable;
          string_of_int r.c_degraded;
          string_of_int r.c_retransmits;
          string_of_int r.c_channel.Jury.Channel.sent;
          string_of_int r.c_channel.Jury.Channel.dropped;
          string_of_int r.c_channel.Jury.Channel.duplicated;
          Printf.sprintf "%.1f" r.c_detection.p50_ms;
          Printf.sprintf "%.1f" r.c_detection.p95_ms ])
    rows;
  Table.print t;
  (match
     ( List.find_opt (fun (r : Figures.channel_row) -> r.mode = "lossy") rows,
       List.find_opt
         (fun (r : Figures.channel_row) -> r.mode = "lossy+retx")
         rows )
   with
  | Some l, Some x ->
      let benign r =
        r.Figures.c_timeout_alarms + r.Figures.c_unverifiable
      in
      note "=> spurious timeout+unverifiable verdicts: %d (no mitigation) \
            -> %d (retransmit + degraded quorum)"
        (benign l) (benign x)
  | _ -> ());
  print_cdf_series ~unit_label:"ms"
    (List.map (fun (r : Figures.channel_row) -> r.c_detection) rows)

let validator_scale ~full () =
  section "Validator scaling: trigger rate x shard count (batched ingest)";
  note "verdict counts must match across shard counts; per-shard batch \
        counters show the fan-out (single-core containers cap the \
        wall-clock speedup — see DESIGN.md)";
  let duration = Time.sec (if full then 10 else 3) in
  let rows = Figures.validator_scale ~duration () in
  let t =
    Table.create
      ~header:
        [ "rate"; "shards"; "decided"; "verdicts/s"; "batches"; "resp/batch";
          "per-shard batches" ]
  in
  List.iter
    (fun (r : Figures.scale_row) ->
      Table.add_row t
        [ Printf.sprintf "%.0f" r.vs_rate;
          string_of_int r.vs_shards;
          string_of_int r.vs_verdicts;
          Printf.sprintf "%.0f" r.vs_verdicts_per_s;
          string_of_int r.vs_batches;
          (if r.vs_batches = 0 then "0"
           else
             Printf.sprintf "%.1f"
               (float_of_int r.vs_batched_responses
               /. float_of_int r.vs_batches));
          String.concat "/" (List.map string_of_int r.vs_shard_batches) ])
    rows;
  Table.print t;
  (* Speedup per rate: shards=max vs shards=1, same workload. *)
  let by_rate = Hashtbl.create 8 in
  List.iter
    (fun (r : Figures.scale_row) ->
      let prev = try Hashtbl.find by_rate r.vs_rate with Not_found -> [] in
      Hashtbl.replace by_rate r.vs_rate (r :: prev))
    rows;
  Hashtbl.fold (fun rate rs acc -> (rate, List.rev rs) :: acc) by_rate []
  |> List.sort compare
  |> List.iter (fun (rate, rs) ->
         match
           ( List.find_opt (fun (r : Figures.scale_row) -> r.vs_shards = 1) rs,
             List.fold_left
               (fun acc (r : Figures.scale_row) ->
                 match acc with
                 | Some (b : Figures.scale_row) when b.vs_shards >= r.vs_shards
                   -> acc
                 | _ -> Some r)
               None rs )
         with
         | Some base, Some best when base.vs_shards <> best.vs_shards ->
             note "=> %.0f pps: %.2fx verdicts/s at shards=%d vs shards=1 \
                   (decided %d vs %d%s)"
               rate
               (if base.vs_verdicts_per_s > 0. then
                  best.vs_verdicts_per_s /. base.vs_verdicts_per_s
                else 0.)
               best.vs_shards best.vs_verdicts base.vs_verdicts
               (if best.vs_verdicts = base.vs_verdicts then ", identical"
                else " -- MISMATCH")
         | _ -> ())

(* --- Bechamel micro-benchmarks --- *)

let micro ~full:_ () =
  section "Micro-benchmarks (Bechamel): hot paths";
  let open Bechamel in
  let policy_engine =
    Jury_policy.Engine.create
      (List.init 1000 (fun i ->
           Jury_policy.Ast.rule
             ~name:(Printf.sprintf "p%d" i)
             ~cache:Jury_store.Cache_names.flowsdb
             ~entry:
               (Jury_policy.Ast.Entry_glob
                  { key = Jury_policy.Pattern.compile
                      (Printf.sprintf "never-%d-*" i);
                    value = Jury_policy.Pattern.compile "*" })
             ()))
  in
  let query =
    { Jury_policy.Ast.q_controller = 3;
      q_trigger = `External;
      q_cache = Jury_store.Cache_names.flowsdb;
      q_op = Jury_store.Event.Create;
      q_key = "a1b2c3d4/deadbeef";
      q_value = String.make 160 'f';
      q_destination = `Local }
  in
  let mac i = Jury_packet.Addr.Mac.of_host_index i in
  let flow_mod =
    Jury_openflow.Of_message.flow_mod
      (Jury_openflow.Of_match.l2_pair ~src:(mac 1) ~dst:(mac 2))
      [ Jury_openflow.Of_action.Output 3 ]
  in
  let msg =
    Jury_openflow.Of_message.make ~xid:7
      (Jury_openflow.Of_message.Flow_mod flow_mod)
  in
  let wire = Jury_openflow.Of_wire.encode msg in
  let table = Jury_openflow.Flow_table.create () in
  let engine_now = Jury_sim.Time.ms 1 in
  for i = 1 to 100 do
    ignore
      (Jury_openflow.Flow_table.apply_flow_mod table ~now:engine_now
         (Jury_openflow.Of_message.flow_mod ~priority:i
            (Jury_openflow.Of_match.l2_pair ~src:(mac i) ~dst:(mac (i + 1)))
            [ Jury_openflow.Of_action.Output 2 ]))
  done;
  let probe_frame =
    Jury_packet.Frame.tcp_packet
      ~src:(mac 50, Jury_packet.Addr.Ipv4.of_host_index 50)
      ~dst:(mac 51, Jury_packet.Addr.Ipv4.of_host_index 51)
      ~src_port:1234 ~dst_port:80 ()
  in
  let graph =
    (Jury_topo.Builder.linear ~switches:24 ~hosts_per_switch:1)
      .Jury_topo.Builder.graph
  in
  let d1 = Jury_openflow.Of_types.Dpid.of_int 1 in
  let d24 = Jury_openflow.Of_types.Dpid.of_int 24 in
  let exact = Jury_openflow.Of_match.exact_of_frame ~in_port:1 probe_frame in
  (* One k=6 decision: the primary and six secondaries report the same
     FLOWSDB write, FLOW_MOD and PACKET_OUT (each list built on its
     own, as the replicas do), then the cache event and the FLOW_MOD
     arrive and the trigger completes. With [dissent] the last
     secondary forwards to another port, so consensus has to compare
     fingerprints instead of deciding from structural equality. *)
  let decide_k6 ~dissent =
    let module V = Jury.Validator in
    let module R = Jury.Response in
    let module Types = Jury_controller.Types in
    let engine = Jury_sim.Engine.create () in
    let v =
      V.create engine
        (Jury.Jury_config.validator ~ack_peers_of:(fun _ -> [])
           (Jury.Jury_config.make ~k:6 ()))
    in
    let rule port =
      Jury_openflow.Of_message.flow_mod ~priority:40000 exact
        [ Jury_openflow.Of_action.Output port ]
    in
    let fm = rule 2 in
    let key = Jury_controller.Values.Flow.key d1 exact ~priority:40000 in
    let value = Jury_controller.Values.Flow.value fm in
    let actions port =
      let fm = rule port in
      let value = Jury_controller.Values.Flow.value fm in
      [ Types.Cache_write
          { cache = Jury_store.Cache_names.flowsdb;
            op = Jury_store.Event.Create; key; value };
        Types.Network_send
          { dpid = d1; payload = Jury_openflow.Of_message.Flow_mod fm };
        Types.Network_send
          { dpid = d1;
            payload =
              Jury_openflow.Of_message.Packet_out
                { po_buffer_id = None; po_in_port = 1;
                  po_actions = [ Jury_openflow.Of_action.Output port ];
                  po_frame = Some probe_frame } } ]
    in
    let responses =
      List.init 7 (fun i -> actions (if dissent && i = 6 then 3 else 2))
    in
    let serial = ref 0 in
    fun () ->
      incr serial;
      let taint = Types.Taint.external_trigger ~primary:0 ~serial:!serial in
      let send controller body =
        V.deliver v
          { R.controller; taint; snapshot = Jury.Snapshot.pristine;
            sent_at = Jury_sim.Time.zero; term = 0; body }
      in
      V.register_external v ~taint ~at:Jury_sim.Time.zero ~primary:0
        ~secondaries:[ 1; 2; 3; 4; 5; 6 ];
      List.iteri
        (fun i actions ->
          send i
            (R.Execution
               { role = (if i = 0 then `Primary else `Secondary); actions }))
        responses;
      send 0
        (R.Cache_update
           { Jury_store.Event.cache = Jury_store.Cache_names.flowsdb;
             op = Jury_store.Event.Create; key; value; origin = 0;
             seq = !serial; taint = Some taint });
      send 0 (R.Network_write { dpid = d1; flow = fm })
  in
  (* One engine step over a queue held at 1600 events, the median
     queue depth of an onos-k6-steady run: each no-op event
     reschedules itself at its own fixed delay, so the queue stays
     full and every push lands at a different depth. *)
  let step_q1600 =
    let engine = Jury_sim.Engine.create () in
    for i = 0 to 1599 do
      let after = Jury_sim.Time.ns (1_000 + (i * 7_919 mod 100_000)) in
      let rec tick () = Jury_sim.Engine.schedule engine ~after tick in
      Jury_sim.Engine.schedule engine ~after tick
    done;
    fun () -> Jury_sim.Engine.step engine
  in
  (* One engine step in firehose's shape: an arrival every 20 us (50k
     triggers/s) arms its trigger's validation timer 50 ms ahead, on
     the validator's fixed-delay lane, and the timer drains there when
     due, as a cancelled one does. Stepped through 60 ms before timing,
     so about 2,500 timers are queued throughout. *)
  let step_timers_q2500 =
    let engine = Jury_sim.Engine.create () in
    let timeout = Jury_sim.Time.ms 50 and gap = Jury_sim.Time.us 20 in
    let timer () = () in
    let rec arrival () =
      Jury_sim.Engine.schedule_fixed engine ~after:timeout timer;
      Jury_sim.Engine.schedule engine ~after:gap arrival
    in
    arrival ();
    Jury_sim.Engine.run engine ~until:(Jury_sim.Time.ms 60);
    fun () -> Jury_sim.Engine.step engine
  in
  (* A replica's lookup: the memo holds the rule another replica
     rendered, and this one asks with its own, equal, match and
     FLOW_MOD. *)
  let flow_memo = Jury_controller.Values.Flow.Memo.create () in
  let exact_fm =
    Jury_openflow.Of_message.flow_mod ~priority:40000 ~idle_timeout:10
      ~buffer_id:(Some 5) exact [ Jury_openflow.Of_action.Output 2 ]
  in
  let replica_exact =
    Jury_openflow.Of_match.exact_of_frame ~in_port:1 probe_frame
  in
  let replica_fm =
    Jury_openflow.Of_message.flow_mod ~priority:40000 ~idle_timeout:10
      ~buffer_id:(Some 5) replica_exact [ Jury_openflow.Of_action.Output 2 ]
  in
  ignore
    (Jury_controller.Values.Flow.Memo.key flow_memo d1 exact ~priority:40000);
  ignore (Jury_controller.Values.Flow.Memo.value flow_memo exact_fm);
  let packet_in =
    Jury_openflow.Of_message.make ~xid:9
      (Jury_openflow.Of_message.Packet_in
         { buffer_id = Some 5; in_port = 1;
           reason = Jury_openflow.Of_message.No_match; frame = probe_frame })
  in
  (* One draw of each kind the simulator samples per execution: a
     rejection-path bounded int, a link jitter, a service time. *)
  let draws = Jury_sim.Rng.create 7 in
  let tests =
    [ Test.make ~name:"policy-check-1k"
        (Staged.stage (fun () -> Jury_policy.Engine.check policy_engine query));
      Test.make ~name:"of-wire-encode"
        (Staged.stage (fun () -> Jury_openflow.Of_wire.encode msg));
      Test.make ~name:"of-wire-decode"
        (Staged.stage (fun () -> Jury_openflow.Of_wire.decode wire));
      Test.make ~name:"flow-table-lookup-100"
        (Staged.stage (fun () ->
             Jury_openflow.Flow_table.lookup table ~now:engine_now ~in_port:1
               probe_frame));
      Test.make ~name:"shortest-path-linear24"
        (Staged.stage (fun () -> Jury_topo.Graph.shortest_path graph d1 d24));
      Test.make ~name:"frame-encode"
        (Staged.stage (fun () -> Jury_packet.Frame.encode probe_frame));
      Test.make ~name:"flow-key-exact"
        (Staged.stage (fun () ->
             Jury_controller.Values.Flow.key d1 exact ~priority:40000));
      Test.make ~name:"flow-key-memo-hit"
        (Staged.stage (fun () ->
             Jury_controller.Values.Flow.Memo.key flow_memo d1 replica_exact
               ~priority:40000));
      Test.make ~name:"flow-value-exact"
        (Staged.stage (fun () -> Jury_controller.Values.Flow.value exact_fm));
      Test.make ~name:"flow-value-memo-hit"
        (Staged.stage (fun () ->
             Jury_controller.Values.Flow.Memo.value flow_memo replica_fm));
      Test.make ~name:"of-wire-size-packet-in"
        (Staged.stage (fun () -> Jury_openflow.Of_wire.encoded_size packet_in));
      Test.make ~name:"of-wire-encode-len-packet-in"
        (Staged.stage (fun () ->
             String.length (Jury_openflow.Of_wire.encode packet_in)));
      Test.make ~name:"consensus-fingerprint-k6"
        (Staged.stage (decide_k6 ~dissent:false));
      Test.make ~name:"consensus-dissent-k6"
        (Staged.stage (decide_k6 ~dissent:true));
      Test.make ~name:"engine-step-q1600" (Staged.stage step_q1600);
      Test.make ~name:"engine-step-timers-q2500"
        (Staged.stage step_timers_q2500);
      Test.make ~name:"rng-int-7"
        (Staged.stage (fun () -> Jury_sim.Rng.int draws 7));
      Test.make ~name:"rng-exponential"
        (Staged.stage (fun () -> Jury_sim.Rng.exponential draws 10.));
      Test.make ~name:"rng-lognormal"
        (Staged.stage (fun () ->
             Jury_sim.Rng.lognormal draws ~mu:0.5 ~sigma:0.8)) ]
  in
  let grouped = Test.make_grouped ~name:"jury" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort compare
  in
  micro_rows :=
    !micro_rows
    @ List.filter_map
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Some (name, est)
          | _ -> None)
        rows;
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-34s %10.1f ns/op\n" name est
      | _ -> Printf.printf "  %-34s (no estimate)\n" name)
    rows

(* --- Live heap by owner --- *)

(* What holds the heap in the paper's headline setting: an ONOS k = 6
   deployment with one timing-faulty replica under the controlled mix
   at 5.5k PACKET_IN/s, read at the end of its 2 s load window after a
   full major collection. An owner's figure is the words reachable from
   its own tables and nothing else: a walk that started from a closure
   would reach nearly the whole heap, which CI catches as an owner, or
   the owners' sum, larger than the live total. Owners share only
   strings the store holds too (the mirror's values and the views'
   LINKSDB keys), so the rest (live less the owners' sum) is a lower
   bound. *)
let live_heap ~full:_ () =
  section
    "Live heap by owner: ONOS k=6, controlled mix at 5.5k/s, end of the 2 s \
     load window";
  let env =
    Setup.make ~seed:1
      ~jury:(Jury.Jury_config.make ~k:6 ())
      ~profile:Jury_controller.Profile.onos ~nodes:7 ()
  in
  Jury_faults.Injector.make_slow env.Setup.cluster ~node:2 ~delay:(Time.ms 25);
  Jury_faults.Injector.make_lossy env.Setup.cluster ~node:2
    ~omit_probability:0.05;
  Jury_workload.Flows.controlled_mix env.Setup.network ~rng:env.Setup.rng
    ~packet_in_rate:5500. ~duration:(Time.sec 2);
  Setup.run_for env (Time.sec 2);
  let tables =
    List.map Jury_net.Switch.table (Jury_net.Network.switches env.Setup.network)
  in
  let validator = Setup.validator env in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  let owners =
    [ ( "switch flow tables",
        (* less the list's own cons cells *)
        Obj.reachable_words (Obj.repr tables) - (3 * List.length tables) );
      ( "store replicas' caches",
        Jury_store.Fabric.cache_words
          (Jury_controller.Cluster.fabric env.Setup.cluster) );
      ( "controller views",
        Jury_controller.Cluster.view_words env.Setup.cluster );
      ("validator FLOWSDB mirror", Jury.Validator.mirror_words validator);
      ("validator pending triggers", Jury.Validator.pending_words validator) ]
  in
  let row label words =
    Printf.printf "  %-34s %9d  %5.1f%%\n" label words
      (100. *. float_of_int words /. float_of_int live)
  in
  row "live words" live;
  List.iter (fun (name, words) -> row ("owner " ^ name) words) owners;
  row "rest" (live - List.fold_left (fun acc (_, w) -> acc + w) 0 owners);
  let entries =
    List.fold_left (fun n t -> n + Jury_openflow.Flow_table.size t) 0 tables
  in
  note "%d flow-table entries in %d switches, %.1f words each" entries
    (List.length tables)
    (float_of_int (List.assoc "switch flow tables" owners)
    /. float_of_int (max 1 entries));
  note "%d triggers pending" (Jury.Validator.pending_count validator)

let all_experiments =
  [ ("fig4a", fig4a);
    ("fig4b", fig4b);
    ("fig4c", fig4c);
    ("fig4d", fig4d);
    ("detection", detection);
    ("fig4e", fig4e);
    ("fig4f", fig4f);
    ("fig4g", fig4g);
    ("fig4h", fig4h);
    ("fig4i", fig4i);
    ("overhead", overhead);
    ("profiles", profiles);
    ("profile-onos", profile_one "onos");
    ("profile-odl", profile_one "odl");
    ("profile-ryu", profile_one "ryu");
    ("policy-scaling", policy_scaling);
    ("policy-scale", policy_scale);
    ("ablations", ablations);
    ("lossy", lossy);
    ("validator-scale", validator_scale);
    ("live-heap", live_heap);
    ("micro", micro) ]

(* --- machine-readable results (--json) --- *)

type record = {
  r_name : string;
  r_wall_s : float;
  r_events : int;  (** simulator events executed, summed over domains *)
}

let write_json path ~jobs ~full records =
  let open Jury_obs.Json in
  let experiment r =
    let rate =
      if r.r_wall_s > 0. then float_of_int r.r_events /. r.r_wall_s else 0.
    in
    Obj
      [ ("name", String r.r_name);
        ("wall_s", Float r.r_wall_s);
        ("events", Int r.r_events);
        ("events_per_sec", Float rate) ]
  in
  let json =
    Obj
      [ ("jobs", Int jobs);
        ("mode", String (if full then "full" else "quick"));
        ("total_wall_s",
         Float (List.fold_left (fun a r -> a +. r.r_wall_s) 0. records));
        ("experiments", List (List.map experiment records));
        ("micro_ns_per_op",
         Obj (List.map (fun (name, ns) -> (name, Float ns)) !micro_rows)) ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let run_selected names full jobs json =
  (match jobs with
  | Some n -> Jury_par.Pool.set_default_jobs n
  | None -> ());
  let to_run =
    match names with
    | [] -> all_experiments
    | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt name all_experiments with
            | Some f -> Some (name, f)
            | None ->
                Printf.eprintf "unknown experiment %S (known: %s)\n" name
                  (String.concat ", " (List.map fst all_experiments));
                exit 2)
          names
  in
  Printf.printf
    "JURY reproduction benchmarks (%s mode, %d worker domain(s))\n\
     Shapes should match the paper; absolute numbers come from the \
     calibrated simulator (see DESIGN.md / EXPERIMENTS.md).\n"
    (if full then "full" else "quick")
    (Jury_par.Pool.jobs (Jury_par.Pool.default ()));
  let records =
    List.map
      (fun (name, f) ->
        (* The process-wide event counter never resets; the figure is a
           delta around the run, so back-to-back experiments report
           their own work, not the cumulative total. *)
        let events0 = Jury_sim.Engine.total_executed () in
        let t0 = Unix.gettimeofday () in
        f ~full ();
        { r_name = name;
          r_wall_s = Unix.gettimeofday () -. t0;
          r_events = Jury_sim.Engine.total_executed () - events0 })
      to_run
  in
  print_newline ();
  Option.iter
    (fun path ->
      write_json path
        ~jobs:(Jury_par.Pool.jobs (Jury_par.Pool.default ()))
        ~full records)
    json

open Cmdliner

let names_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
         ~doc:"Experiments to run (default: all). Known: fig4a fig4b fig4c \
               fig4d detection fig4e fig4f fig4g fig4h fig4i overhead \
               profiles profile-onos profile-odl profile-ryu \
               policy-scaling policy-scale ablations lossy validator-scale \
               live-heap micro.")

let full_arg =
  Arg.(value & flag & info [ "full" ]
         ~doc:"Paper-length runs (60s detection windows, 10 repeats).")

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for experiment fan-out (default: \\$JURY_JOBS \
               if set, else cores - 1; 1 = serial). Results are \
               byte-identical whatever the value.")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Write machine-readable results (per-experiment wall-clock, \
               events/sec, micro-bench ns/op) to PATH.")

let cmd =
  let term = Term.(const (fun names full jobs json ->
                       run_selected names full jobs json)
                   $ names_arg $ full_arg $ jobs_arg $ json_arg) in
  Cmd.v (Cmd.info "jury-bench" ~doc:"Regenerate the JURY paper's tables and figures")
    term

let () = exit (Cmd.eval cmd)
