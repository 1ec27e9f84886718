(* The firehose workload: a bare validator fed by the heavy-tailed
   [Firehose.enterprise] trigger stream. There is no controller, store
   or network, so validator ingest is nearly the only work, and the
   validator keeps every verdict, so heap growth shows.

   Set-up draws the whole stream in advance — arrival instants, primary,
   secondaries, which responders answer, flow keys — in exactly the
   order [Firehose_bench.run_point] draws them; the measured pass then
   replays run_point's flow: register at arrival, responses into a
   200 µs batch window, one [deliver_batch] per tick, a 60 ms settle
   and a final flush. [parity] checks the two agree. *)

open Jury_sim
module Firehose = Jury_workload.Firehose
module Firehose_bench = Jury_experiments.Firehose_bench
module Validator = Jury.Validator
module Response = Jury.Response
module Snapshot = Jury.Snapshot
module Types = Jury_controller.Types
module Event = Jury_store.Event
module Names = Jury_store.Cache_names

let nodes = 5
let k = 2
let window = Time.us 200
let timeout = Time.ms 50
let settle = Time.ms 60
let profile = Firehose.enterprise

type inputs = {
  seed : int;
  stop : Time.t;
  at : Time.t array;
  primary : int array;
  secondaries : int list array;
  answers : int array;  (** bit 0: the primary answers; bit i: secondary i *)
  keys : string array;
}

let triggers inp = Array.length inp.at

(* The stream up to [limit]: every arrival up to a simulated instant
   (as run_point takes it), or exactly a number of arrivals — then the
   stream stops at the last one, and a run's work does not depend on
   how heavy its seed's tail gaps were. *)
let generate ~seed ~limit =
  let rng = Rng.create (seed lxor 0xf14e_05e) in
  let stream = Firehose.stream ~rng ~start:Time.zero profile in
  let others = List.init nodes Fun.id in
  let wanted s (ev : Firehose.event) =
    match limit with
    | `Until stop -> Time.(ev.at <= stop)
    | `Count n -> s < n
  in
  let rec draw s (ev : Firehose.event) acc =
    if not (wanted s ev) then List.rev acc
    else begin
      let primary = s mod nodes in
      let secondaries =
        Rng.sample_without_replacement rng (min k (nodes - 1))
          (List.filter (fun n -> n <> primary) others)
        |> List.sort compare
      in
      let answers =
        List.fold_left
          (fun (bits, i) _ ->
            ((if Rng.bernoulli rng 0.98 then bits lor (1 lsl i) else bits), i + 1))
          (0, 0) (primary :: secondaries)
        |> fst
      in
      let row = (ev.at, primary, secondaries, answers, ev.flow_key) in
      draw (s + 1) (Firehose.next stream) (row :: acc)
    end
  in
  let rows = Array.of_list (draw 0 (Firehose.next stream) []) in
  let at = Array.map (fun (a, _, _, _, _) -> a) rows in
  { seed;
    stop =
      (match limit with
      | `Until stop -> stop
      | `Count _ -> if at = [||] then Time.zero else at.(Array.length at - 1));
    at;
    primary = Array.map (fun (_, p, _, _, _) -> p) rows;
    secondaries = Array.map (fun (_, _, s, _, _) -> s) rows;
    answers = Array.map (fun (_, _, _, b, _) -> b) rows;
    keys = Array.map (fun (_, _, _, _, key) -> key) rows }

(* Wall time the bench's own closures spend, kept only in the traced
   pass: it separates engine dispatch from validator work. *)
type probe_ns = {
  mutable register : int;
  mutable deliver : int;
  mutable closure : int;  (** inside the current step's bench closure *)
  mutable dispatch : int; (** closure steps: step time minus closure time *)
  mutable closure_steps : int;
  mutable timers : int;   (** steps that ran no bench closure *)
}

type pass = {
  engine : Engine.t;
  validator : Validator.t;
  horizon : Time.t;
  mutable sentinel : bool;
  mutable undecided : int;  (** at the sentinel, before the flush *)
  mutable responses : int;
  mutable flush_ns : int;
  probe : probe_ns option;
}

let fresh_probe () =
  { register = 0; deliver = 0; closure = 0; dispatch = 0; closure_steps = 0;
    timers = 0 }

(* Build the validator and schedule the replay; nothing runs yet. *)
let prepare ?pool ?(jobs = 1) ?(shards = 1) ?(traced = false) inp =
  let engine = Engine.create ~seed:inp.seed () in
  let vcfg =
    Jury.Jury_config.validator
      ~ack_peers_of:(fun _ -> [])
      (Jury.Jury_config.make ~k ~shards ~timeout ~batch:window ())
  in
  let validator = Validator.create engine vcfg in
  (match pool with
  | Some pool when jobs > 1 -> Jury.Stage.attach ~pool ~jobs vcfg validator
  | _ -> ());
  let horizon = Time.add inp.stop settle in
  let p =
    { engine; validator; horizon; sentinel = false; undecided = 0;
      responses = 0; flush_ns = 0;
      probe = (if traced then Some (fresh_probe ()) else None) }
  in
  (* One nanosecond past the settle horizon, scheduled before anything
     else there: it is the first event past run_point's horizon. *)
  ignore
    (Engine.schedule_at engine ~at:(Time.add horizon (Time.ns 1)) (fun () ->
         p.sentinel <- true;
         p.undecided <- triggers inp - Validator.decided_count validator));
  let batch = ref [] in
  let snapshot = Snapshot.pristine in
  let action key =
    Types.Cache_write { cache = Names.flowsdb; op = Event.Create; key; value = "v" }
  in
  let closure_time a =
    match p.probe with
    | Some pr -> pr.closure <- pr.closure + (Measure.now_ns () - a)
    | None -> ()
  in
  let traced_now () = if traced then Measure.now_ns () else 0 in
  let rec arrive s () =
    let a = traced_now () in
    let primary = inp.primary.(s) and secondaries = inp.secondaries.(s) in
    let taint = Types.Taint.external_trigger ~primary ~serial:s in
    let now = Engine.now engine in
    let r = traced_now () in
    Validator.register_external validator ~taint ~at:now ~primary ~secondaries;
    let reg = traced_now () - r in
    let key = inp.keys.(s) in
    let respond i controller role =
      if inp.answers.(s) land (1 lsl i) <> 0 then begin
        p.responses <- p.responses + 1;
        batch :=
          { Response.controller; taint; snapshot; sent_at = now; term = 0;
            body = Response.Execution { role; actions = [ action key ] } }
          :: !batch
      end
    in
    respond 0 primary `Primary;
    p.responses <- p.responses + 1;
    batch :=
      { Response.controller = primary; taint; snapshot; sent_at = now; term = 0;
        body =
          Response.Cache_update
            { Event.cache = Names.flowsdb; op = Event.Create; key; value = "v";
              origin = primary; seq = s; taint = None } }
      :: !batch;
    List.iteri (fun i sc -> respond (i + 1) sc `Secondary) secondaries;
    arm (s + 1);
    match p.probe with
    | Some pr ->
        pr.register <- pr.register + reg;
        closure_time a
    | None -> ()
  and arm s =
    if s < triggers inp then
      ignore (Engine.schedule_at engine ~at:inp.at.(s) (arrive s))
  in
  let rec tick () =
    let a = traced_now () in
    (match !batch with
    | [] -> ()
    | rs ->
        let d = traced_now () in
        Validator.deliver_batch validator (List.rev rs);
        let d = traced_now () - d in
        batch := [];
        Option.iter (fun pr -> pr.deliver <- pr.deliver + d) p.probe);
    if Time.(Engine.now engine < inp.stop) then
      ignore (Engine.schedule engine ~after:window tick);
    closure_time a
  in
  arm 0;
  ignore (Engine.schedule engine ~after:window tick);
  p

let finished p () = p.sentinel

let run_untraced p =
  Engine.run p.engine ~until:p.horizon;
  while not p.sentinel do ignore (Engine.step p.engine) done

(* End of the stream: force-decide what is left (nothing, when the
   settle window did its job). Timed; part of every pass's wall time,
   as in run_point. *)
let flush p =
  let a = Measure.now_ns () in
  Validator.flush p.validator;
  p.flush_ns <- Measure.now_ns () - a

(* Run a prepared pass untraced: wall ns (replay plus flush) and GC
   counts. *)
let measure p =
  let gc0 = Measure.gc_now () in
  let a = Measure.now_ns () in
  run_untraced p;
  flush p;
  let wall_ns = Measure.now_ns () - a in
  (wall_ns, Measure.gc_diff gc0 (Measure.gc_now ()))

type outcome = {
  attempted : int;
  failed : int;       (** undecided at the sentinel *)
  decided : int;
  faults : int;
  responses : int;
  detect_ms : float array;
  at_timeout : int;  (** decided by the validation timer *)
  digest : string;
}

let outcome inp p =
  let verdicts = Validator.verdicts p.validator in
  { attempted = triggers inp;
    failed = p.undecided;
    decided = Validator.decided_count p.validator;
    faults = Validator.fault_count p.validator;
    responses = p.responses;
    detect_ms =
      Array.of_list
        (List.map
           (fun a -> Time.to_float_ms (Jury.Alarm.detection_time a))
           verdicts);
    at_timeout =
      List.length
        (List.filter
           (fun a -> Time.(Jury.Alarm.detection_time a >= timeout))
           verdicts);
    digest = Measure.verdict_digest verdicts }

(* The benchmark's replay and [Firehose_bench.run_point] agree on a short
   stream. *)
let parity ~seed =
  let duration = Time.ms 100 in
  let inp = generate ~seed ~limit:(`Until duration) in
  let p = prepare inp in
  ignore (measure p);
  let o = outcome inp p in
  let r =
    Firehose_bench.run_point ~seed ~nodes ~k ~profile ~duration ~jobs:1
      ~shards:1 ()
  in
  o.attempted = r.Firehose_bench.fh_triggers
  && o.decided = r.Firehose_bench.fh_decided
  && o.faults = r.Firehose_bench.fh_faults
  && o.responses = r.Firehose_bench.fh_responses

(* --- The traced pass --- *)

let probe p =
  let v = p.validator in
  let read (c : int array) =
    c.(0) <- Validator.decided_count v;
    c.(1) <- p.responses;
    c.(2) <- Validator.batch_count v;
    c.(3) <- Validator.pending_count v
  in
  { Layers.owners = [| 0; 4; 4; 4 |]; read }

(* [p] must come from [prepare ~traced:true]. *)
let run_traced p =
  let pr = Option.get p.probe in
  let after_step dt =
    if pr.closure > 0 then begin
      pr.dispatch <- pr.dispatch + (dt - pr.closure);
      pr.closure_steps <- pr.closure_steps + 1;
      pr.closure <- 0
    end
    else pr.timers <- pr.timers + dt
  in
  let inflight = Measure.Samples.create () in
  let every_ms () =
    Measure.Samples.add inflight
      (float_of_int (Validator.pending_count p.validator))
  in
  let layers =
    Layers.run p.engine (probe p) ~finished:(finished p) ~every_ms ~after_step
  in
  (layers, inflight)

(* Per-layer figures of a traced pass; [gen_ns] is the set-up time spent
   drawing the stream, [gc] the paired untraced pass's GC counts. *)
let layer_metrics p (o : outcome) (layers : Layers.result) inflight ~gen_ns ~gc =
  let pr = Option.get p.probe and v = p.validator in
  let n = o.decided in
  let dispatch = Measure.per pr.dispatch pr.closure_steps in
  let late = Validator.late_count v and dups = Validator.duplicate_count v in
  Layers.metrics layers ~triggers:n
  @ Layers.engine_metrics layers ~dispatch ~triggers:n
  @ Layers.gc_metrics layers ~gc ~triggers:n
  @ Measure.Samples.summary "validator.inflight" inflight
  @ [ ("validator.register_ns", Measure.per pr.register n);
      ("validator.deliver_ns_per_response", Measure.per pr.deliver o.responses);
      ("validator.timer_ns_per_trigger", Measure.per pr.timers n);
      ("validator.flush_ms", float_of_int p.flush_ns /. 1e6);
      ("workload.gen_ns_per_trigger", Measure.per gen_ns n);
      ("validator.responses_per_trigger", Measure.per o.responses n);
      ("validator.batches_per_trigger", Measure.per (Validator.batch_count v) n);
      ("validator.late_per_trigger", Measure.per late n);
      ("validator.duplicate_per_trigger", Measure.per dups n);
      ("validator.stragglers_per_trigger",
       Measure.per (Validator.straggler_count v) n);
      ("validator.useful_response_ratio",
       Measure.per (o.responses - late - dups) o.responses) ]

(* jobs=2 over jobs=1 at shards=2, same stream: verdicts/s ratio and
   whether the verdicts are identical. *)
let stage inp =
  let pool = Jury_par.Pool.create ~jobs:2 () in
  let run jobs =
    let p = prepare ~pool ~jobs ~shards:2 inp in
    let wall_ns, _ = measure p in
    let o = outcome inp p in
    (Measure.per o.decided wall_ns, o)
  in
  let serial_vps, serial = run 1 in
  let staged_vps, staged = run 2 in
  Jury_par.Pool.shutdown pool;
  (staged_vps /. serial_vps,
   serial.digest = staged.digest && serial.decided = staged.decided)
