(* The verdict log: what it returns is what was pushed, and what a long
   run keeps of each verdict is a few words. *)

open Jury_sim
module Types = Jury_controller.Types
module Taint = Types.Taint
module Alarm = Jury.Alarm
module Log = Jury.Verdict_log
module Response = Jury.Response
module Event = Jury_store.Event
module Names = Jury_store.Cache_names

let check_bool = Alcotest.(check bool)

(* --- Round trip --- *)

(* Fields inside the compact form's ranges, mostly, and past them at
   both ends sometimes. *)
let gen_alarm =
  let open QCheck.Gen in
  let edge small edges = frequency [ (6, small); (1, oneofl edges) ] in
  let node = edge (int_bound 7) [ 65535; 65536; 70000; -1; max_int ] in
  let serial =
    edge (int_bound 100_000)
      [ (1 lsl 45) - 1; 1 lsl 45; max_int; min_int; -1 ]
  in
  let* external_ = bool and* node = node and* serial = serial in
  let taint =
    if external_ then Taint.external_trigger ~primary:node ~serial
    else Taint.internal_trigger ~origin:node ~seq:serial
  in
  let* trigger_at = int_bound 1_000_000_000
  and* delay = int_bound 100_000_000 in
  let* primary =
    frequency
      [ (1, return None); (5, map Option.some (int_bound 7));
        (1, oneofl [ Some 65534; Some 65535; Some (-1); Some max_int ]) ]
  in
  let* suspects =
    frequency [ (6, return []); (1, list_size (int_range 1 3) (int_bound 7)) ]
  in
  let* term =
    edge (int_bound 3) [ (1 lsl 43) - 1; 1 lsl 43; -1; max_int; min_int ]
  in
  let* verdict =
    frequency
      [ (6,
         oneofl
           Alarm.
             [ Ok_valid; Ok_non_deterministic; Ok_unverifiable; Ok_degraded;
               Overload ]);
        (1,
         oneofl
           Alarm.
             [ Faulty [ Response_timeout ];
               Faulty [ Consensus_mismatch; Policy_violation "no-linksdb" ];
               Faulty [] ]) ]
  in
  let+ detail = frequency [ (8, return ""); (1, return "epoch 3") ] in
  { Alarm.taint; trigger_at = Time.ns trigger_at;
    decided_at = Time.ns (trigger_at + delay); primary; suspects; term;
    verdict; detail }

let same_alarm (a : Alarm.t) (b : Alarm.t) =
  Taint.equal a.taint b.taint && { a with taint = b.taint } = b

let same_alarms a b = List.equal same_alarm a b

let print_alarms alarms =
  String.concat "\n" (List.map (Format.asprintf "%a" Alarm.pp) alarms)

(* Long enough, at times, to fill a 1024-verdict chunk and start more. *)
let round_trip =
  QCheck.Test.make ~name:"verdicts, alarms and times read back" ~count:200
    (QCheck.make ~print:print_alarms
       QCheck.Gen.(list_size (int_bound 2500) gen_alarm))
    (fun pushed ->
      let log = Log.create () in
      List.iter (Log.add log) pushed;
      let split = List.length pushed / 3 in
      let front = Log.of_list (List.filteri (fun i _ -> i < split) pushed) in
      Log.append front
        (Log.of_list (List.filteri (fun i _ -> i >= split) pushed));
      same_alarms (Log.to_list log) pushed
      && same_alarms (Log.faults log) (List.filter Alarm.is_fault pushed)
      (* Every generated time is at least zero, so a fold from zero
         reads every row, newest first. *)
      && Log.fold_since log ~since:Time.zero ~init:[]
           (fun acc verdict ~trigger_at ~decided_at ->
             (verdict, trigger_at, decided_at) :: acc)
         = List.map
             (fun (a : Alarm.t) -> (a.verdict, a.trigger_at, a.decided_at))
             pushed
      && same_alarms (Log.to_list front) pushed)

(* --- Retention budgets --- *)

(* A bare validator fed [n] triggers the way the firehose benchmark
   feeds them: 50k arrivals a second across five nodes, k = 2, each
   execution answered with probability 0.98, the primary's FLOWSDB
   event, and one batch per 200 us. Returns it flushed. *)
let firehose_validator n =
  let engine = Engine.create ~seed:3 () in
  let cfg =
    Jury.Jury_config.validator
      ~ack_peers_of:(fun _ -> [])
      (Jury.Jury_config.make ~k:2 ~timeout:(Time.ms 50) ~batch:(Time.us 200)
         ())
  in
  let v = Jury.Validator.create engine cfg in
  let rng = Rng.create 17 in
  let batch = ref [] in
  let rec arrive s () =
    let primary = s mod 5 in
    let taint = Taint.external_trigger ~primary ~serial:s in
    let secondaries = [ (primary + 1) mod 5; (primary + 3) mod 5 ] in
    let now = Engine.now engine in
    Jury.Validator.register_external v ~taint ~at:now ~primary ~secondaries;
    let key = Printf.sprintf "%x/flow%d" (1 + (s mod 8)) (s mod 97) in
    let response controller body =
      { Response.controller; taint; snapshot = Jury.Snapshot.pristine;
        sent_at = now; term = 0; body }
    in
    let respond controller role =
      if Rng.bernoulli rng 0.98 then
        batch :=
          response controller
            (Response.Execution
               { role;
                 actions =
                   [ Types.Cache_write
                       { cache = Names.flowsdb; op = Event.Create; key;
                         value = "v" } ] })
          :: !batch
    in
    respond primary `Primary;
    batch :=
      response primary
        (Response.Cache_update
           { Event.cache = Names.flowsdb; op = Event.Create; key; value = "v";
             origin = primary; seq = s; taint = None })
      :: !batch;
    List.iter (fun sc -> respond sc `Secondary) secondaries;
    arm (s + 1)
  (* One arrival queued at a time, as the benchmark queues them. *)
  and arm s =
    if s < n then
      ignore (Engine.schedule_at engine ~at:(Time.us (20 * s)) (arrive s))
  in
  arm 0;
  let stop = Time.us (20 * n) in
  let rec tick () =
    Jury.Validator.deliver_batch v (List.rev !batch);
    batch := [];
    if Time.(Engine.now engine < stop) then
      ignore (Engine.schedule engine ~after:(Time.us 200) tick)
  in
  ignore (Engine.schedule engine ~after:(Time.us 200) tick);
  Engine.run engine;
  Jury.Validator.flush v;
  v

(* The budget is 1.5x the figure measured on OCaml 5.1.1. A flushed
   validator that decided 20k such triggers retains 5.4 words per
   verdict: 4.1 for the rows of 1024-verdict chunks, 0.4 for the 400
   faults (the omitted primaries) kept whole, and 0.8 for the engine,
   whose queue keeps the size of its deepest backlog. Kept as a list of
   alarms, the verdicts cost 19.9. *)
let test_validator_retention () =
  let n = 20_000 in
  let v = firehose_validator n in
  Alcotest.(check int)
    "every trigger decided" n
    (Jury.Validator.decided_count v);
  let words =
    float_of_int (Obj.reachable_words (Obj.repr v)) /. float_of_int n
  in
  check_bool
    (Printf.sprintf "%.2f words per kept verdict <= 8.1" words)
    true (words <= 8.1)

(* A cancelled timer holds no more than one scheduled with no footprint:
   its footprint is dropped with its closure. *)
let test_cancelled_footprint () =
  let cancelled fp =
    let engine = Engine.create () in
    Engine.cancel engine
      (Engine.timer engine fp ~fixed:false ~after:(Time.ms 50) ignore);
    Obj.reachable_words (Obj.repr engine)
  in
  Alcotest.(check int)
    "words an engine with a cancelled timer retains"
    (cancelled Footprint.opaque)
    (cancelled (Footprint.touches [ Footprint.trigger 5; Footprint.store 1 ]))

let suite =
  [ QCheck_alcotest.to_alcotest round_trip;
    ("kept verdict retention budget", `Quick, test_validator_retention);
    ("cancelled timer retains no footprint", `Quick, test_cancelled_footprint) ]
