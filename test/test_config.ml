(* Tests for the Jury_config builder facade and the sharded/bounded
   validator state behind it: facade defaults must reproduce the
   literal seed record byte-for-byte, shard count must not change
   verdicts, max_inflight must shed load as Overload verdicts, and no
   counter may depend on what ran before or on the staged pipeline. *)

open Jury_sim
module Types = Jury_controller.Types
module Names = Jury_store.Cache_names
module Validator = Jury.Validator
module Counter = Jury.Counter
module Response = Jury.Response
module Snapshot = Jury.Snapshot
module Setup = Jury_experiments.Setup

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Build, converge and drive a small benign cluster with [deployment_of]
   supplying the JURY deployment; returns verdict statistics plus the
   exact detection-time samples, which double as a byte-for-byte
   fingerprint of the run. *)
let drive deployment_of =
  let cluster =
    Setup.build ~seed:42 ~switches:8 ~profile:Jury_controller.Profile.onos
      ~nodes:5 ()
  in
  let engine = Jury_controller.Cluster.engine cluster in
  let network = Jury_controller.Cluster.network cluster in
  let deployment = deployment_of cluster in
  Setup.boot cluster;
  let rng = Rng.split (Engine.rng engine) in
  Jury_workload.Flows.controlled_mix network ~rng ~packet_in_rate:800.
    ~duration:(Time.sec 2);
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 4));
  let v = Jury.Deployment.validator deployment in
  ( Validator.decided_count v,
    Validator.fault_count v,
    Array.to_list (Jury.Report.of_validator v).detection_ms,
    v )

(* The seed deployment as a literal record — every default spelled out.
   Must stay in sync with what [Jury_config.make ()] builds; the test
   below pins the two together. *)
let seed_record () =
  { Jury.Deployment.k = 2;
    validator =
      { Validator.timeout = Time.ms 150;
        adaptive_timeout = false;
        state_aware = true;
        nondet_rule = true;
        policies = Jury_policy.Engine.create [];
        master_lookup = (fun _ -> None);
        term_lookup = (fun () -> 0);
        ack_peers_of = (fun _ -> []);
        retransmit = None;
        degraded_quorum = None;
        shards = 1;
        max_inflight = None };
    random_secondaries = true;
    deterministic_latencies = false;
    encapsulation = false;
    channel = Jury.Channel.reliable;
    batch_window = None;
    election = None }

let test_facade_defaults_match_literal_record () =
  let facade =
    drive (fun cluster ->
        Jury.Jury_config.install cluster (Jury.Jury_config.make ()))
  in
  let literal =
    drive (fun cluster -> Jury.Deployment.install cluster (seed_record ()))
  in
  let (fd, ff, ft, _), (ld, lf, lt, _) = (facade, literal) in
  check_int "decided" ld fd;
  check_int "faults" lf ff;
  Alcotest.(check (list (float 0.))) "detection times byte-for-byte" lt ft

let test_shards_do_not_change_verdicts () =
  let run shards =
    drive (fun cluster ->
        Jury.Jury_config.install cluster (Jury.Jury_config.make ~shards ()))
  in
  let d1, f1, t1, v1 = run 1 in
  let d4, f4, t4, v4 = run 4 in
  check_int "shard_count normalised" 4 (Validator.shard_count v4);
  check_int "shard_count seed" 1 (Validator.shard_count v1);
  check_int "decided identical" d1 d4;
  check_int "faults identical" f1 f4;
  Alcotest.(check (list (float 0.))) "detection times identical" t1 t4

let test_batching_fans_out_across_shards () =
  let run shards =
    drive (fun cluster ->
        Jury.Jury_config.install cluster
          (Jury.Jury_config.make ~shards ~batch:(Time.us 200) ()))
  in
  let d1, f1, _, v1 = run 1 in
  let d4, f4, _, v4 = run 4 in
  check_int "decided identical under batching" d1 d4;
  check_int "faults identical under batching" f1 f4;
  check_bool "batches delivered" true (Validator.batch_count v4 > 0);
  check_int "every response batched"
    (Validator.count v1 Batch_response)
    (Validator.count v4 Batch_response);
  let busy_shards =
    List.init 4 (fun shard -> Validator.count ~shard v4 Batch)
    |> List.filter (fun n -> n > 0)
    |> List.length
  in
  check_bool "batches spread over several shards" true (busy_shards > 1)

(* --- bare-validator paths: overload shedding, batch equivalence --- *)

let register v ~serial =
  Validator.register_external v
    ~taint:(Types.Taint.external_trigger ~primary:0 ~serial)
    ~at:Time.zero ~primary:0 ~secondaries:[ 1; 2 ]

let validator_cfg ?shards ?max_inflight () =
  Jury.Jury_config.validator
    ~ack_peers_of:(fun _ -> [])
    (Jury.Jury_config.make ~k:2 ~timeout:(Time.ms 100) ?shards ?max_inflight
       ())

let bare_validator ?shards ?max_inflight () =
  let engine = Engine.create () in
  (engine, Validator.create engine (validator_cfg ?shards ?max_inflight ()))

let overloads v =
  List.filter
    (fun (a : Jury.Alarm.t) -> a.verdict = Jury.Alarm.Overload)
    (Validator.verdicts v)

let test_max_inflight_sheds_as_overload () =
  let _, v = bare_validator ~max_inflight:8 () in
  for serial = 0 to 39 do
    register v ~serial
  done;
  check_bool "inflight bounded near the high-water mark" true
    (Validator.pending_count v <= 16);
  check_bool "overloads recorded" true (Validator.count v Overload > 0);
  check_int "counter matches Overload verdicts"
    (Validator.count v Overload)
    (List.length (overloads v));
  check_int "everything is either pending, decided ok, or shed" 40
    (Validator.pending_count v + Validator.decided_count v)

(* Force-expiry sheds the oldest epoch shard by shard, in registration
   order within a shard: at two shards the serials of one epoch can
   come out swapped (8 before 7). *)
let test_overload_order_pinned () =
  let _, v = bare_validator ~shards:2 ~max_inflight:8 () in
  for serial = 0 to 39 do
    register v ~serial
  done;
  Alcotest.(check (list string))
    "Overload verdicts in shedding order"
    (List.map
       (fun serial ->
         Types.Taint.to_string (Types.Taint.external_trigger ~primary:0 ~serial))
       [ 0; 1; 2; 3; 4; 5; 6; 8; 7; 9; 10; 12; 11; 14; 13; 15; 16; 17; 18;
         19; 20; 21; 22; 23; 24; 26; 25; 28; 27; 29; 30; 31; 32 ])
    (List.map
       (fun (a : Jury.Alarm.t) -> Types.Taint.to_string a.taint)
       (overloads v));
  check_int "the newest registrations stay pending" 7
    (Validator.pending_count v)

(* An internal taint decided by timeout is registered again by a
   response that arrives once the validator has forgotten the verdict,
   one validation timeout later. Force-expiry must shed the new record
   under the epoch it was registered in, not the epoch of the first,
   decided record. *)
let test_reregistered_trigger_expires_in_its_epoch () =
  let engine, v = bare_validator ~max_inflight:4 () in
  let taint = Types.Taint.internal_trigger ~origin:3 ~seq:7 in
  let deliver () =
    Validator.deliver v
      { Response.controller = 3;
        taint;
        snapshot = Snapshot.pristine;
        sent_at = Engine.now engine;
        term = 0;
        body =
          Response.Cache_update
            { Jury_store.Event.cache = Names.hostdb; op = Jury_store.Event.Create;
              key = "h"; value = "v"; origin = 3; seq = 7;
              taint = Some taint } }
  in
  deliver ();
  Engine.run engine;
  check_int "decided by timeout" 1 (Validator.decided_count v);
  let forgotten = Time.add (Engine.now engine) (Time.ms 101) in
  ignore (Engine.schedule_at engine ~at:forgotten deliver);
  Engine.run engine ~until:forgotten;
  check_int "late response registered it again" 1 (Validator.pending_count v);
  for serial = 0 to 5 do
    register v ~serial
  done;
  match overloads v with
  | a :: _ ->
      Alcotest.(check string) "shed first" (Types.Taint.to_string taint)
        (Types.Taint.to_string a.taint);
      Alcotest.(check string) "under its own registration epoch"
        "epoch 2 force-expired at max_inflight high-water mark" a.detail
  | [] -> Alcotest.fail "nothing shed"

let response serial controller =
  { Response.controller;
    taint = Types.Taint.external_trigger ~primary:0 ~serial;
    snapshot = Snapshot.pristine;
    sent_at = Time.zero;
    term = 0;
    body =
      Response.Execution
        { role = (if controller = 0 then `Primary else `Secondary);
          actions = [] } }

let responses n =
  List.concat_map (fun serial -> List.map (response serial) [ 0; 1; 2 ])
    (List.init n Fun.id)

let test_deliver_batch_matches_per_event () =
  let run ~batched ~shards =
    let _, v = bare_validator ~shards () in
    for serial = 0 to 9 do
      register v ~serial
    done;
    let rs = responses 10 in
    if batched then Validator.deliver_batch v rs
    else List.iter (Validator.deliver v) rs;
    v
  in
  let a = run ~batched:false ~shards:1 in
  let b = run ~batched:true ~shards:1 in
  let c = run ~batched:true ~shards:4 in
  check_int "per-event decided" 10 (Validator.decided_count a);
  check_int "batched decided" (Validator.decided_count a)
    (Validator.decided_count b);
  check_int "batched sharded decided" (Validator.decided_count a)
    (Validator.decided_count c);
  check_int "no batches on the per-event path" 0 (Validator.batch_count a);
  check_int "one batch per non-empty shard, single shard" 1
    (Validator.batch_count b);
  check_int "all responses counted as batched" 30
    (Validator.count b Batch_response);
  check_bool "sharded batch split into per-shard sub-batches" true
    (Validator.batch_count c > 1)

let test_backtoback_runs_count_identically () =
  (* Counters live in the validator, not the process: a second run
     counts exactly what the first did. *)
  let run_once () =
    let _, v = bare_validator () in
    for serial = 0 to 4 do
      register v ~serial
    done;
    Validator.deliver_batch v (responses 5);
    Validator.counters v
  in
  let first = run_once () in
  check_bool "batches counted" true (List.assoc Counter.Batch first > 0);
  check_bool "identical counters" true (first = run_once ())

let test_counter_slots () =
  List.iteri
    (fun i c -> check_int (Counter.name c) i (Counter.index c))
    Counter.all

let test_count_allocates_nothing () =
  let _, v = bare_validator ~shards:4 () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Validator.count v Decided + Validator.decided_count v)
  done;
  check_bool "no words per read" true (Gc.minor_words () -. before < 100.)

let test_pipeline_merge_keeps_every_counter () =
  (* Every trigger hears from its primary (twice when even) and from
     secondary 1; every third also hears from secondary 2, is decided at
     once, and hears from it again a tick later (late). The rest time
     out with secondary 2 straggling. The staged pipeline's merge must
     carry every counter, not only the verdict counts. *)
  let serials = List.init 12 Fun.id in
  let every k s = s mod k = 0 in
  let first_tick =
    List.concat_map
      (fun s ->
        [ response s 0; response s 1 ]
        @ (if every 2 s then [ response s 0 ] else [])
        @ if every 3 s then [ response s 2 ] else [])
      serials
  in
  let second_tick =
    List.map (fun s -> response s 2) (List.filter (every 3) serials)
  in
  let run ~staged =
    let engine = Engine.create () and cfg = validator_cfg ~shards:2 () in
    let v = Validator.create engine cfg in
    let pool = Jury_par.Pool.create ~jobs:2 () in
    if staged then Jury.Stage.attach ~pool ~jobs:2 cfg v;
    List.iter (fun serial -> register v ~serial) serials;
    List.iter
      (fun (ms, rs) ->
        ignore
          (Engine.schedule engine ~after:(Time.ms ms) (fun () ->
               Validator.deliver_batch v rs)))
      [ (1, first_tick); (2, second_tick) ];
    Engine.run engine ~until:(Time.sec 1);
    Validator.flush v;
    Jury_par.Pool.shutdown pool;
    Validator.counters v
  in
  let serial = run ~staged:false in
  let staged = run ~staged:true in
  List.iter
    (fun c ->
      check_bool (Counter.name c ^ " exercised") true (List.assoc c serial > 0))
    Counter.[ Late; Duplicate; Straggler; Batch ];
  List.iter2
    (fun (c, n) (_, m) -> check_int (Counter.name c) n m)
    serial staged

(* 6000 triggers, one every 50 us, run on a bare validator, staged
   when [jobs > 1]: each shard buffers more than 1024 items, so it
   replays several chunks, and the 100 ms timers fall due across every
   cut. Each primary also writes FLOWSDB (mirror traffic for the other
   shards), every fifth answers twice, every seventh trigger's
   secondary 2 stays silent until after the timeout (late), and every
   eleventh primary disagrees with its secondaries (faulty). *)
let chunk_replay ~shards ~jobs =
  let n = 6000 in
  let taint serial = Types.Taint.external_trigger ~primary:0 ~serial in
  let write key =
    Types.Cache_write
      { cache = Jury_store.Cache_names.flowsdb; op = Jury_store.Event.Create;
        key; value = "v" }
  in
  let respond serial controller body =
    { Response.controller; taint = taint serial; snapshot = Snapshot.pristine;
      sent_at = Time.zero; term = 0; body }
  in
  let execution serial controller =
    let key =
      if controller = 0 && serial mod 11 = 0 then "other" else "k"
    in
    respond serial controller
      (Response.Execution
         { role = (if controller = 0 then `Primary else `Secondary);
           actions = [ write key ] })
  in
  let first_tick serial =
    let cache_update =
      respond serial 0
        (Response.Cache_update
           { Jury_store.Event.cache = Jury_store.Cache_names.flowsdb;
             op = Jury_store.Event.Create; key = "k"; value = "v"; origin = 0;
             seq = serial; taint = None })
    in
    [ execution serial 0; cache_update; execution serial 1 ]
    @ (if serial mod 5 = 0 then [ execution serial 0 ] else [])
    @ if serial mod 7 = 0 then [] else [ execution serial 2 ]
  in
  let engine = Engine.create () and cfg = validator_cfg ~shards () in
  let v = Validator.create engine cfg in
  let pool = Jury_par.Pool.create ~jobs () in
  if jobs > 1 then Jury.Stage.attach ~pool ~jobs cfg v;
  for serial = 0 to n - 1 do
    let at = Time.us (50 * serial) in
    ignore
      (Engine.schedule_at engine ~at (fun () ->
           Validator.register_external v ~taint:(taint serial) ~at
             ~primary:0 ~secondaries:[ 1; 2 ]));
    ignore
      (Engine.schedule_at engine ~at:(Time.add at (Time.ms 1)) (fun () ->
           Validator.deliver_batch v (first_tick serial)));
    if serial mod 7 = 0 then
      ignore
        (Engine.schedule_at engine ~at:(Time.add at (Time.ms 150))
           (fun () -> Validator.deliver_batch v [ execution serial 2 ]))
  done;
  Engine.run engine ~until:(Time.sec 1);
  Validator.flush v;
  Jury_par.Pool.shutdown pool;
  v

(* The serial and staged replays of [chunk_replay] at 2 jobs over 2
   shards and at 4 jobs over 4 shards (four replay groups) agree. *)
let test_staged_replay_across_chunks () =
  let run ~shards ~jobs =
    let v = chunk_replay ~shards ~jobs in
    (Jury_check.Run.fingerprint_of_validator v, Validator.counters v)
  in
  List.iter
    (fun (shards, jobs) ->
      let serial_fp, serial = run ~shards ~jobs:1 in
      let staged_fp, staged = run ~shards ~jobs in
      List.iter
        (fun c ->
          check_bool (Counter.name c ^ " exercised") true
            (List.assoc c serial > 0))
        Counter.[ Decided; Faulty; Late; Duplicate; Straggler ];
      List.iter2
        (fun (c, n) (_, m) -> check_int (Counter.name c) n m)
        serial staged;
      check_bool "verdict fingerprints equal" true
        (Jury_check.Run.fingerprint_equal serial_fp staged_fp))
    [ (2, 2); (4, 4) ]

let test_stage_rejects_what_it_cannot_replicate () =
  let attach ?retransmit ?adaptive_timeout ?max_inflight ?policies () =
    let cfg =
      Jury.Jury_config.validator
        ~ack_peers_of:(fun _ -> [])
        (Jury.Jury_config.make ~shards:2 ?retransmit ?adaptive_timeout
           ?max_inflight ?policies ())
    in
    let pool = Jury_par.Pool.create ~jobs:1 () in
    match
      Jury.Stage.attach ~pool ~jobs:2 cfg (Validator.create (Engine.create ()) cfg)
    with
    | () -> "accepted"
    | exception Invalid_argument msg -> msg
  in
  let check = Alcotest.(check string) in
  check "plain config" "accepted" (attach ());
  check "retransmit"
    "Stage.attach: retransmit must be None"
    (attach ~retransmit:(Jury.Jury_config.retransmit ()) ());
  check "adaptive timeout"
    "Stage.attach: adaptive_timeout must be false"
    (attach ~adaptive_timeout:true ());
  check "max_inflight"
    "Stage.attach: max_inflight must be None"
    (attach ~max_inflight:10 ());
  check "policy rules"
    "Stage.attach: policies must have no rules"
    (attach
       ~policies:
         (Jury_policy.Engine.create
            [ Jury_policy.Ast.rule ~name:"no-linksdb" ~cache:Names.linksdb () ])
       ());
  check "two at once, both named"
    "Stage.attach: retransmit must be None; max_inflight must be None"
    (attach ~retransmit:(Jury.Jury_config.retransmit ()) ~max_inflight:10 ())

let test_shard_counters_sum_to_totals () =
  let _, v = bare_validator ~shards:2 () in
  for serial = 0 to 3 do
    register v ~serial
  done;
  Validator.deliver_batch v (responses 4);
  for serial = 4 to 7 do
    register v ~serial
  done;
  let per_shard f = f ~shard:0 + f ~shard:1 in
  check_int "per-shard pending gauges sum to the total" 4
    (per_shard (fun ~shard -> Validator.pending_count ~shard v));
  check_int "pending total" (Validator.pending_count v)
    (per_shard (fun ~shard -> Validator.pending_count ~shard v));
  List.iter
    (fun c ->
      check_int
        ("per-shard " ^ Counter.name c ^ " counters sum to the total")
        (Validator.count v c)
        (per_shard (fun ~shard -> Validator.count ~shard v c)))
    Counter.all;
  check_bool "the batch decided triggers" true (Validator.decided_count v > 0);
  check_bool "the batch was counted" true (Validator.batch_count v > 0)

let test_make_validates () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "negative k rejected" true
    (raises (fun () -> Jury.Jury_config.make ~k:(-1) ()));
  check_bool "zero max_inflight rejected" true
    (raises (fun () -> Jury.Jury_config.make ~max_inflight:0 ()));
  check_bool "zero degraded_quorum rejected" true
    (raises (fun () -> Jury.Jury_config.make ~degraded_quorum:0 ()));
  check_bool "shard hint rounded up" true
    (Jury.Jury_config.shards (Jury.Jury_config.make ~shards:3 ()) = 4);
  match Jury.Jury_config.make ~k:(-1) ~shards:0 ~degraded_quorum:0 () with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "one error naming every bad argument"
        "Jury_config.make: k must be >= 0; shards must be >= 1; \
         degraded_quorum must be >= 1"
        msg
  | _ -> Alcotest.fail "k -1, shards 0 and degraded_quorum 0 accepted"

let test_make_rejects_bad_election () =
  match
    Jury.Jury_config.make ~shards:0
      ~election:{ Jury_controller.Cluster.period = Time.zero; timeout_beats = 0 }
      ()
  with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "election errors join the one list"
        "Jury_config.make: shards must be >= 1; election period must be \
         positive; election timeout_beats must be >= 1"
        msg
  | _ -> Alcotest.fail "shards 0 and a zero election period accepted"

let test_timeout_defaults () =
  let timeout ?timeout ?encapsulation () =
    Time.to_ns
      (Jury.Jury_config.timeout
         (Jury.Jury_config.make ?timeout ?encapsulation ()))
  in
  let ms n = Time.to_ns (Time.ms n) in
  check_int "150 ms by default" (ms 150) (timeout ());
  check_int "800 ms when encapsulated" (ms 800)
    (timeout ~encapsulation:true ());
  check_int "explicit timeout wins" (ms 40)
    (timeout ~timeout:(Time.ms 40) ());
  check_int "explicit timeout wins when encapsulated" (ms 40)
    (timeout ~timeout:(Time.ms 40) ~encapsulation:true ())

let test_deterministic_latencies_pin_secondaries () =
  let cluster =
    Setup.build ~switches:2 ~profile:Jury_controller.Profile.onos ~nodes:3 ()
  in
  let cfg =
    Jury.Deployment.cfg
      (Jury.Jury_config.install cluster
         (Jury.Jury_config.make ~deterministic_latencies:true
            ~random_secondaries:true ()))
  in
  check_bool "static secondaries" false cfg.random_secondaries;
  check_bool "fixed latencies" true cfg.deterministic_latencies

(* An all-zero loss model is the reliable channel, so callers can pass
   their loss flags through unconditionally. *)
let test_zero_loss_installs_reliable_channel () =
  let cluster =
    Setup.build ~switches:2 ~profile:Jury_controller.Profile.onos ~nodes:3 ()
  in
  let cfg =
    Jury.Deployment.cfg
      (Jury.Jury_config.install cluster
         (Jury.Jury_config.make ~drop:0. ~duplicate:0. ~jitter_us:0. ()))
  in
  check_bool "reliable" true (Jury.Channel.is_reliable cfg.channel)

(* --- Report windows against the verdict list --- *)

module Alarm = Jury.Alarm
module Report = Jury.Report

(* [Report.of_validator ~since] must equal the roll-up of
   [Validator.verdicts] filtered by [decided_at >= since]. Suspect rows
   compare sorted by controller and their kinds by name: rows with
   equal counts keep hash order. *)
let check_report_window ~name v since =
  let label field =
    Printf.sprintf "%s, since %s: %s" name (Time.to_string since) field
  in
  let window =
    List.filter
      (fun (a : Alarm.t) -> Time.(a.decided_at >= since))
      (Validator.verdicts v)
  in
  let r = Report.of_validator ~since v in
  let count p =
    List.length (List.filter (fun (a : Alarm.t) -> p a.verdict) window)
  in
  check_int (label "decided") (List.length window) r.decided;
  check_int (label "ok") (count (( = ) Alarm.Ok_valid)) r.ok;
  check_int (label "non-deterministic")
    (count (( = ) Alarm.Ok_non_deterministic)) r.non_deterministic;
  check_int (label "unverifiable") (count (( = ) Alarm.Ok_unverifiable))
    r.unverifiable;
  check_int (label "degraded") (count (( = ) Alarm.Ok_degraded)) r.degraded;
  check_int (label "overload") (count (( = ) Alarm.Overload)) r.overload;
  check_int (label "faulty")
    (count (function Alarm.Faulty _ -> true | _ -> false)) r.faulty;
  let ms =
    List.map (fun a -> Time.to_float_ms (Alarm.detection_time a)) window
  in
  Alcotest.(check (list (float 0.))) (label "detection samples") ms
    (Array.to_list r.detection_ms);
  check_bool (label "detection summary") true
    (r.detection
    = match ms with [] -> None | _ -> Some (Jury_stats.Summary.of_list ms));
  let faults = List.filter Alarm.is_fault window in
  let show = List.map (Format.asprintf "%a" Alarm.pp) in
  Alcotest.(check (list string)) (label "alarms") (show faults)
    (show r.alarms);
  let row c =
    let hits =
      List.filter (fun (a : Alarm.t) -> List.mem c a.suspects) faults
    in
    let kinds =
      List.concat_map
        (fun (a : Alarm.t) ->
          match a.verdict with
          | Faulty fs -> List.map Alarm.fault_name fs
          | _ -> [])
        hits
    in
    let times = List.map (fun (a : Alarm.t) -> a.decided_at) hits in
    ( c,
      List.length hits,
      List.map
        (fun k -> (k, List.length (List.filter (String.equal k) kinds)))
        (List.sort_uniq String.compare kinds),
      List.fold_left Time.min (List.hd times) times,
      List.fold_left Time.max (List.hd times) times )
  in
  let expected =
    List.map row
      (List.sort_uniq compare
         (List.concat_map (fun (a : Alarm.t) -> a.suspects) faults))
  in
  let actual =
    List.sort compare
      (List.map
         (fun (s : Report.suspect_row) ->
           ( s.controller, s.alarm_count, List.sort compare s.fault_kinds,
             s.first_at, s.last_at ))
         r.suspects)
  in
  check_bool (label "suspect table") true (expected = actual);
  let counts =
    List.map (fun (s : Report.suspect_row) -> s.alarm_count) r.suspects
  in
  check_bool (label "most implicated first") true
    (counts = List.sort (fun a b -> compare b a) counts)

(* Three windows: the whole log, from the exact [decided_at] of a
   logged verdict (included, while an earlier one is not), and past the
   end. Their exactness rests on [decided_at] never decreasing. Both
   runs below log [Ok_valid] verdicts, kept as compact rows, and
   faults, kept as side rows. *)
let check_report_windows ~name v =
  let verdicts = Validator.verdicts v in
  let times = List.map (fun (a : Alarm.t) -> a.decided_at) verdicts in
  check_bool (name ^ ": decided_at never decreases") true
    (times = List.sort Time.compare times);
  let boundary = List.nth times (List.length times / 2) in
  check_bool (name ^ ": the boundary splits the log") true
    (Time.(List.hd times < boundary));
  let past_end =
    Time.add (List.nth times (List.length times - 1)) (Time.ns 1)
  in
  List.iter (check_report_window ~name v) [ Time.zero; boundary; past_end ]

(* A lossy k=2 run with retransmission, degraded quorum, an in-flight
   cap, ECMP forwarding and one slow, lossy replica: every verdict
   class occurs. *)
let test_report_window_serial () =
  let v =
    let env =
      Setup.make ~seed:5 ~plan:(Jury_topo.Builder.three_tier ~hosts_per_edge:2)
        ~jury:
          (Jury.Jury_config.make ~k:2 ~drop:0.1 ~duplicate:0.02
             ~jitter_us:150. ~retransmit:(Jury.Jury_config.retransmit ())
             ~degraded_quorum:1 ~max_inflight:64 ())
        ~profile:Jury_controller.Profile.onos_ecmp ~nodes:5 ()
    in
    Jury_faults.Injector.make_slow env.Setup.cluster ~node:2
      ~delay:(Time.ms 25);
    Jury_faults.Injector.make_lossy env.Setup.cluster ~node:2
      ~omit_probability:0.05;
    Jury_workload.Flows.new_connections env.Setup.network ~rng:env.Setup.rng
      ~rate:300. ~duration:(Time.sec 1) ~mode:Jury_workload.Flows.Any_pair ();
    Setup.run_for env (Time.sec 2);
    Setup.validator env
  in
  let r = Report.of_validator v in
  List.iter
    (fun (verdict, n) -> check_bool (verdict ^ " verdicts occur") true (n > 0))
    [ ("ok", r.ok); ("non-deterministic", r.non_deterministic);
      ("unverifiable", r.unverifiable); ("degraded", r.degraded);
      ("overload", r.overload); ("faulty", r.faulty) ];
  check_report_windows ~name:"serial" v

(* The staged merge sorts the shards' verdicts by [decided_at]: a
   window over the merged log is as exact as over a serial one. *)
let test_report_window_staged () =
  let v = chunk_replay ~shards:2 ~jobs:2 in
  let r = Report.of_validator v in
  check_bool "compact and side rows" true (r.ok > 0 && r.faulty > 0);
  check_report_windows ~name:"staged" v

let suite =
  [ Alcotest.test_case "facade defaults = literal record" `Slow
      test_facade_defaults_match_literal_record;
    Alcotest.test_case "shards=1 vs 4 verdict-identical" `Slow
      test_shards_do_not_change_verdicts;
    Alcotest.test_case "batching fans out across shards" `Slow
      test_batching_fans_out_across_shards;
    Alcotest.test_case "max_inflight sheds as Overload" `Quick
      test_max_inflight_sheds_as_overload;
    Alcotest.test_case "Overload order pinned (2 shards)" `Quick
      test_overload_order_pinned;
    Alcotest.test_case "re-registered trigger expires in its epoch" `Quick
      test_reregistered_trigger_expires_in_its_epoch;
    Alcotest.test_case "deliver_batch = per-event deliver" `Quick
      test_deliver_batch_matches_per_event;
    Alcotest.test_case "back-to-back runs count identically" `Quick
      test_backtoback_runs_count_identically;
    Alcotest.test_case "counter slots follow Counter.all" `Quick
      test_counter_slots;
    Alcotest.test_case "count allocates nothing" `Quick
      test_count_allocates_nothing;
    Alcotest.test_case "pipeline merge keeps every counter" `Quick
      test_pipeline_merge_keeps_every_counter;
    Alcotest.test_case "staged replay across chunk boundaries" `Quick
      test_staged_replay_across_chunks;
    Alcotest.test_case "Stage.attach rejects what it cannot replicate" `Quick
      test_stage_rejects_what_it_cannot_replicate;
    Alcotest.test_case "per-shard counters sum to the totals" `Quick
      test_shard_counters_sum_to_totals;
    Alcotest.test_case "make validates its arguments" `Quick
      test_make_validates;
    Alcotest.test_case "make lists election errors" `Quick
      test_make_rejects_bad_election;
    Alcotest.test_case "timeout defaults" `Quick test_timeout_defaults;
    Alcotest.test_case "deterministic latencies pin secondaries" `Quick
      test_deterministic_latencies_pin_secondaries;
    Alcotest.test_case "zero loss installs a reliable channel" `Quick
      test_zero_loss_installs_reliable_channel;
    Alcotest.test_case "serial Report ~since = verdicts" `Quick
      test_report_window_serial;
    Alcotest.test_case "staged Report ~since = verdicts" `Quick
      test_report_window_staged ]
