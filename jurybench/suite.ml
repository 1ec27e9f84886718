(* The JURY benchmark: one named workload per process.

     suite.exe --workload NAME --seed N [--seconds S] [--trace 0|1]
               [--json FILE]

   A run repeats one episode of the workload — set-up, then a measured
   pass — with the same seed for as long as [--seconds] allows, and
   reports a figure over the repeats (see [end_to_end_values]).
   Repeats must agree exactly (same verdict digest, same events),
   which is checked. With [--trace 0] every pass is untraced and the
   run reports the end-to-end metrics. With [--trace 1] a discarded
   warm-up pass is followed by pairs, untraced then traced, and the run
   reports the per-layer metrics of the pair whose traced pass took the
   median time; the two passes of every pair must agree exactly too.

   Every metric is printed by name with its unit; the last line of
   standard output is one JSON object with keys correct, attempted,
   failed and metrics. [--json FILE] also writes a fuller record: the
   verdict digest, the checks, the figures printed beside the metrics,
   and every repeat's ns per trigger. *)

open Jury_sim
module Profile = Jury_controller.Profile

(* --- Workloads --- *)

type kind = Deployment of Deploy.spec | Firehose of int  (** triggers *)

type workload = { name : string; kind : kind }

let timing_faulty = [ 2 ]

let workloads =
  [ (* The paper's headline setting (§VII, Fig. 4a k=6): shadow
       execution, verdict decisions, the controller pipeline and the
       clustered store all carry real work; the data plane little. *)
    { name = "onos-k6-steady";
      kind =
        Deployment
          { profile = Profile.onos; k = 6; faulty = timing_faulty;
            rate = 5500.; load = Time.sec 2; drain = Time.sec 1;
            jury = Jury.Jury_config.make ~k:6 () } };
    (* Standalone Ryu: state-blind voting, no store replication or
       snapshot matching — the control for store and consensus
       changes. *)
    { name = "ryu-k6-steady";
      kind =
        Deployment
          { profile = Profile.ryu; k = 6; faulty = timing_faulty; rate = 800.;
            load = Time.sec 8; drain = Time.sec 1;
            jury = Jury.Jury_config.make ~k:6 () } };
    (* A lossy channel: retries, late and duplicate responses, degraded
       quorum and batched sharded ingest, instead of clean per-response
       consensus. *)
    { name = "onos-k2-lossy";
      kind =
        Deployment
          { profile = Profile.onos; k = 2; faulty = []; rate = 3000.;
            load = Time.sec 4; drain = Time.sec 1;
            jury =
              Jury.Jury_config.make ~k:2 ~drop:0.1 ~duplicate:0.02
                ~jitter_us:150.
                ~retransmit:(Jury.Jury_config.retransmit ())
                ~degraded_quorum:2 ~batch:(Time.us 200) ~shards:4 () } };
    (* A bare validator under the heavy-tailed enterprise firehose:
       ingest is nearly the only work, and every verdict is kept, so
       heap growth shows. *)
    { name = "firehose"; kind = Firehose 150_000 } ]

(* --- Metric catalogue --- *)

let end_to_end =
  [ ("setup_s", "s"); ("ns_per_trigger", "ns");
    ("alloc_words_per_trigger", "words"); ("peak_heap_mb", "MB");
    ("detect_mean_ms", "ms") ]

let per_layer =
  List.concat_map
    (fun layer ->
      [ (layer ^ ".ns_per_trigger", "ns"); (layer ^ ".events_per_trigger", "count");
        (layer ^ ".ns_per_event", "ns") ])
    (Array.to_list Layers.names)
  @ [ ("validator.register_ns", "ns");
      ("validator.deliver_ns_per_response", "ns");
      ("validator.timer_ns_per_trigger", "ns");
      ("validator.flush_ms", "ms");
      ("workload.gen_ns_per_trigger", "ns");
      ("sim.dispatch_ns_per_event", "ns");
      ("sim.dispatch_ns_per_trigger", "ns");
      ("sim.events_per_trigger", "count");
      ("sim.queue_depth_p50", "count");
      ("sim.queue_depth_max", "count");
      ("controller.backlog_ms_p50", "ms");
      ("controller.backlog_ms_max", "ms");
      ("controller.pipeline_dropped_per_ktrigger", "count");
      ("validator.inflight_p50", "count");
      ("validator.inflight_max", "count");
      ("channel.sent_per_trigger", "count");
      ("channel.dropped_per_trigger", "count");
      ("channel.duplicated_per_trigger", "count");
      ("channel.retransmitted_per_trigger", "count");
      ("validator.responses_per_trigger", "count");
      ("validator.batches_per_trigger", "count");
      ("validator.late_per_trigger", "count");
      ("validator.duplicate_per_trigger", "count");
      ("validator.stragglers_per_trigger", "count");
      ("deployment.replication_bytes_per_trigger", "bytes");
      ("deployment.validator_bytes_per_trigger", "bytes");
      ("store.events_applied_per_trigger", "count");
      ("store.bytes_per_trigger", "bytes");
      ("net.dataplane_bytes_per_trigger", "bytes");
      ("validator.useful_response_ratio", "ratio");
      ("gc.minor_collections_per_ktrigger", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_words_per_trigger", "words");
      ("gc.pause_ms_total", "ms");
      ("gc.pause_ms_max", "ms");
      ("stage.speedup_jobs2", "ratio");
      ("stage.verdict_mismatches", "count");
      ("trace.overhead_pct", "%");
      ("verdict.false_alarm_ratio", "ratio") ]

(* --- One pass --- *)

type pass = {
  setup_s : float;
  wall_ns : int;
  gc : Measure.gc;
  peak_heap_mb : float;  (** process heap peak right after the pass *)
  attempted : int;
  failed : int;
  decided : int;
  detect_ms : float array;
  at_timeout : int;
  false_alarm_rate : float;
  digest : string;
  events : int;
  sane : bool;
  layers : (string * float) list;  (** traced passes only *)
  adds_up : bool;  (** traced: layer ns sum to the stepped ns *)
}

let elapsed_s a = float_of_int (Measure.now_ns () - a) /. 1e9

let adds_up (r : Layers.result) = Array.fold_left ( + ) 0 r.ns = r.stepped_ns

let deploy_pass (spec : Deploy.spec) ~seed ~traced_with =
  let a = Measure.now_ns () in
  let ep = Deploy.setup spec ~seed in
  let setup_s = elapsed_s a in
  let wall_ns, gc, layers, sums =
    match traced_with with
    | None ->
        let wall_ns, gc = Deploy.run_untraced ep in
        (wall_ns, gc, (fun _ -> []), true)
    | Some gc ->
        let t = Deploy.run_traced ep in
        let depth = Measure.Counts.median t.Deploy.layers.Layers.depth in
        let dispatch = Layers.dispatch_ns_per_event ~depth in
        ( t.Deploy.layers.Layers.wall_ns, gc,
          (fun o -> Deploy.layer_metrics ep o t ~gc ~dispatch),
          adds_up t.Deploy.layers )
  in
  let peak_heap_mb = Measure.peak_heap_mb () in
  let o = Deploy.outcome ep in
  { setup_s; wall_ns; gc; peak_heap_mb; attempted = o.attempted; failed = o.failed;
    decided = o.decided; detect_ms = o.detect_ms; at_timeout = o.at_timeout;
    false_alarm_rate = Measure.per o.false_alarms o.decided;
    digest = o.digest; events = o.events; sane = Deploy.sane ep o;
    layers = layers o; adds_up = sums }

(* Set-up here is drawing the stream and building the validator: the
   inputs exist before the measured pass starts. *)
let fire_pass count ~seed ~traced_with =
  let a = Measure.now_ns () in
  let inp = Fire.generate ~seed ~limit:(`Count count) in
  let gen_ns = Measure.now_ns () - a in
  let p = Fire.prepare ~traced:(traced_with <> None) inp in
  let setup_s = elapsed_s a in
  let wall_ns, gc, layers, sums =
    match traced_with with
    | None ->
        let wall_ns, gc = Fire.measure p in
        (wall_ns, gc, (fun _ -> []), true)
    | Some gc ->
        let layers, inflight = Fire.run_traced p in
        Fire.flush p;
        ( layers.Layers.wall_ns + p.Fire.flush_ns, gc,
          (fun o -> Fire.layer_metrics p o layers inflight ~gen_ns ~gc),
          adds_up layers )
  in
  let peak_heap_mb = Measure.peak_heap_mb () in
  let o = Fire.outcome inp p in
  { setup_s; wall_ns; gc; peak_heap_mb; attempted = o.attempted; failed = o.failed;
    decided = o.decided; detect_ms = o.detect_ms; at_timeout = o.at_timeout;
    false_alarm_rate = 0.;
    digest = o.digest; events = Engine.executed_events p.Fire.engine;
    sane = o.failed = 0 && o.decided = o.attempted && o.attempted > 0;
    layers = layers o; adds_up = sums }

let pass w ~seed ~traced_with =
  let r =
    match w.kind with
    | Deployment spec -> deploy_pass spec ~seed ~traced_with
    | Firehose count -> fire_pass count ~seed ~traced_with
  in
  (* Every repeat starts from the same compacted heap, so repeats see
     the same GC history. *)
  Gc.compact ();
  r

(* --- The run --- *)

(* Repeat [f] until the next repeat would end after [deadline] (at
   least once). *)
let repeat ~deadline f =
  let rec go acc =
    let a = Measure.now_ns () in
    let acc = f () :: acc in
    let cost = Measure.now_ns () - a in
    if Measure.now_ns () + cost > deadline then List.rev acc else go acc
  in
  go []

let all_equal f = function
  | [] -> true
  | x :: rest -> List.for_all (fun y -> f y = f x) rest

type run = {
  untraced : pass list;
  traced : pass list;  (** [traced.(i)] pairs with [untraced.(i)] *)
  checks : (string * bool) list;
  stage : (float * bool) option;
}

(* Everything the run does counts against [seconds]: the firehose
   parity check and stage pass, and in a traced run one warm-up pass
   (discarded) so that the first pair does not pay for cold caches
   and a small heap on its untraced side only. *)
let execute w ~seed ~seconds ~trace =
  let deadline = Measure.now_ns () + (seconds * 1_000_000_000) in
  let parity, stage =
    match w.kind with
    | Firehose count ->
        let parity = Fire.parity ~seed in
        let stage =
          if trace then Some (Fire.stage (Fire.generate ~seed ~limit:(`Count count)))
          else None
        in
        Gc.compact ();
        ([ ("firehose replay matches Firehose_bench.run_point", parity) ], stage)
    | Deployment _ -> ([], None)
  in
  let untraced, traced =
    if trace then begin
      ignore (pass w ~seed ~traced_with:None);
      repeat ~deadline (fun () ->
          let u = pass w ~seed ~traced_with:None in
          (u, pass w ~seed ~traced_with:(Some u.gc)))
      |> List.split
    end
    else (repeat ~deadline (fun () -> pass w ~seed ~traced_with:None), [])
  in
  let passes = untraced @ traced in
  let checks =
    parity
    @ [ ("every trigger taken in got a verdict",
         List.for_all (fun p -> p.sane) passes);
        ("every pass gave the same verdict digest",
         all_equal (fun p -> p.digest) passes);
        ("every pass stopped on the same sentinel event",
         all_equal (fun p -> p.events) passes);
        ("layer times add up to the stepped wall time",
         List.for_all (fun p -> p.adds_up) traced) ]
    @ (match stage with
      | Some (_, same) -> [ ("staged and serial verdicts match", same) ]
      | None -> [])
  in
  { untraced; traced; checks; stage }

(* --- Metrics --- *)

let median_of f ps = Measure.median (Array.of_list (List.map f ps))

let ns_per_trigger p = Measure.per p.wall_ns p.decided

(* Repeats of a run do identical work, and interference from the rest
   of the machine only ever slows a repeat down, so the fastest repeat
   is the run's figure for wall time: over ten seeds it spread about
   half as much as the median of repeats did. *)
let end_to_end_values run =
  let u = run.untraced in
  let first = List.hd u in
  [ ("setup_s", median_of (fun p -> p.setup_s) u);
    ("ns_per_trigger", List.fold_left Float.min infinity (List.map ns_per_trigger u));
    ("alloc_words_per_trigger",
     median_of (fun p -> Measure.fper p.gc.Measure.alloc_words p.decided) u);
    ("peak_heap_mb", first.peak_heap_mb);
    ("detect_mean_ms", Jury_stats.Summary.mean first.detect_ms) ]

(* The traced pass of median wall time supplies every per-layer figure,
   so its layer figures stay consistent with each other. *)
let per_layer_values run =
  let traced = Array.of_list run.traced in
  let chosen =
    traced.(Measure.median_index
              (Array.map (fun p -> float_of_int p.wall_ns) traced))
  in
  let overhead =
    100.
    *. (median_of (fun p -> float_of_int p.wall_ns) run.traced
        /. median_of (fun p -> float_of_int p.wall_ns) run.untraced
       -. 1.)
  in
  chosen.layers
  @ [ ("trace.overhead_pct", overhead) ]
  @
  match run.stage with
  | Some (speedup, same) ->
      [ ("stage.speedup_jobs2", speedup);
        ("stage.verdict_mismatches", if same then 0. else 1.) ]
  | None -> []

(* Lay computed figures onto the catalogue. A catalogued figure the
   workload did not produce belongs to a layer it does not exercise
   (no store on the firehose, no stage pass outside it) and reads 0. *)
let catalogued catalogue values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith ("metric missing from the catalogue: " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value (List.assoc_opt name values) ~default:0.))
    catalogue

(* --- Output --- *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric"

let json_string s = Printf.sprintf "%S" s

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let metrics_json metrics =
  json_object
    (List.map
       (fun (name, unit, value) ->
         ( name,
           json_object [ ("value", json_number value); ("unit", json_string unit) ]
         ))
       metrics)

let report w ~seed ~trace ~json run =
  let passes = run.untraced @ run.traced in
  let total f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  let attempted = total (fun p -> p.attempted)
  and failed = total (fun p -> p.failed) in
  let correct = List.for_all snd run.checks in
  let metrics =
    if trace then catalogued per_layer (per_layer_values run)
    else catalogued end_to_end (end_to_end_values run)
  in
  (* Figures beside the metrics: checked or informative, not bounded
     (the tail percentiles pin at the validation timeout on some
     workloads, so they would not tell one seed from another). *)
  let first = List.hd run.untraced in
  let extras =
    [ ("ops_attempted", "count", float_of_int attempted);
      ("ops_failed", "count", float_of_int failed);
      ("detect_samples", "count", float_of_int (Array.length first.detect_ms));
      ("detect_p50_ms", "ms", Measure.percentile first.detect_ms 0.5);
      ("detect_p90_ms", "ms", Measure.percentile first.detect_ms 0.9);
      ("detect_timeout_ratio", "ratio", Measure.per first.at_timeout first.decided);
      ("false_alarm_rate", "ratio", first.false_alarm_rate) ]
  in
  Printf.printf "workload %s  seed %d  trace %d  repeats %d\n" w.name seed
    (if trace then 1 else 0)
    (List.length run.untraced);
  List.iter
    (fun (name, unit, value) ->
      Printf.printf "  %-44s %18.6f %s\n" name value unit)
    (metrics @ extras);
  Printf.printf "  %-44s %s\n" "verdict_digest" first.digest;
  List.iter
    (fun (name, ok) ->
      Printf.printf "  check: %s: %s\n" name (if ok then "ok" else "FAILED"))
    run.checks;
  let result =
    [ ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ("metrics", metrics_json metrics) ]
  in
  if json <> "" then begin
    let oc = open_out json in
    output_string oc
      (json_object
         ([ ("workload", json_string w.name);
            ("seed", string_of_int seed);
            ("verdict_digest", json_string first.digest);
            ("repeat_ns_per_trigger",
             "["
             ^ String.concat ", "
                 (List.map (fun p -> json_number (ns_per_trigger p)) run.untraced)
             ^ "]");
            ("checks",
             json_object
               (List.map (fun (name, ok) -> (name, string_of_bool ok)) run.checks));
            ("extras", metrics_json extras) ]
         @ result));
    output_char oc '\n';
    close_out oc
  end;
  print_endline (json_object result)

(* --- Command line --- *)

let usage =
  "suite.exe --workload NAME --seed N [--seconds S] [--trace 0|1] [--json FILE]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 in
  let trace = ref 0 and json = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--json", Arg.Set_string json, "FILE also write the full record here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline (msg ^ "\n" ^ usage);
    exit 2
  in
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ !workload)
  in
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let trace = !trace = 1 in
  report w ~seed ~trace ~json:!json
    (execute w ~seed ~seconds:!seconds ~trace)
