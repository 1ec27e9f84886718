(* Firehose throughput bench: drive a bare validator (optionally
   staged over the domain pool) with a {!Jury_workload.Firehose}
   stream and measure sustained ingest and verdict throughput in
   wall-clock terms.

   The sweep runs its (jobs, shards) points sequentially — each point
   owns the machine, and a staged point replays on the pool's
   domains, so fanning points out would corrupt every wall-clock
   figure. Within a
   point the flow is the deployment's: registrations at arrival,
   responses accumulated into a 200 µs batch window, one
   [deliver_batch] per window tick, a final [flush] after the stream
   ends. Verdict counts must agree across every point of a profile —
   the job and shard counts are not allowed to be observable — and
   [sweep] records the serial point's count so the caller can check. *)

open Jury_sim
module Firehose = Jury_workload.Firehose
module Validator = Jury.Validator
module Response = Jury.Response
module Snapshot = Jury.Snapshot
module Types = Jury_controller.Types
module Event = Jury_store.Event
module Names = Jury_store.Cache_names

type row = {
  fh_profile : string;
  fh_jobs : int;
  fh_shards : int;
  fh_triggers : int;        (* arrivals registered *)
  fh_responses : int;       (* responses ingested *)
  fh_decided : int;
  fh_faults : int;
  fh_wall_s : float;
  fh_events_per_s : float;  (* (triggers + responses) / wall *)
  fh_verdicts_per_s : float;
  fh_domains_spawned : int; (* Pool.domains_spawned delta around the point *)
}

let run_point ?(seed = 11) ?(nodes = 5) ?(k = 2) ~profile ~duration ~jobs
    ~shards () =
  let engine = Engine.create ~seed () in
  let vcfg =
    Jury.Jury_config.validator
      ~ack_peers_of:(fun _ -> [])
      (Jury.Jury_config.make ~k ~shards ~timeout:(Time.ms 50)
         ~batch:(Time.us 200) ())
  in
  let v = Validator.create engine vcfg in
  if jobs > 1 then
    Jury.Stage.attach ~pool:(Jury_par.Pool.default ()) ~jobs vcfg v;
  let rng = Rng.create (seed lxor 0xf14e_05e) in
  let stream = Firehose.stream ~rng ~start:(Engine.now engine) profile in
  let stop = Time.add (Engine.now engine) duration in
  let window = Time.us 200 in
  let serial = ref 0 and responses = ref 0 in
  let batch_buf = ref [] in
  let others = List.init nodes Fun.id in
  let action key =
    Types.Cache_write
      { cache = Names.flowsdb; op = Event.Create; key; value = "v" }
  in
  (* Every responder shares the pristine snapshot, so state-aware
     consensus agrees; the primary additionally externalises its write
     as a FLOWSDB cache event (which a pipelined run mirrors across
     shards), completing the trigger before the timer unless the 2%
     omission probability starves the quorum into a timeout. *)
  let snapshot = Snapshot.pristine in
  let rec arm_arrival () =
    let ev = Firehose.next stream in
    if Time.(ev.Firehose.at <= stop) then
      ignore
        (Engine.schedule_at engine ~at:ev.Firehose.at (fun () ->
             let s = !serial in
             incr serial;
             let primary = s mod nodes in
             let taint = Types.Taint.external_trigger ~primary ~serial:s in
             let secondaries =
               Rng.sample_without_replacement rng
                 (min k (nodes - 1))
                 (List.filter (fun n -> n <> primary) others)
               |> List.sort compare
             in
             Validator.register_external v ~taint ~at:(Engine.now engine)
               ~primary ~secondaries;
             let key = ev.Firehose.flow_key in
             let push body =
               incr responses;
               batch_buf :=
                 { Response.controller = primary; taint; snapshot;
                   sent_at = Engine.now engine; term = 0; body }
                 :: !batch_buf
             in
             let respond controller role =
               if Rng.bernoulli rng 0.98 then begin
                 incr responses;
                 batch_buf :=
                   { Response.controller; taint; snapshot;
                     sent_at = Engine.now engine; term = 0;
                     body = Response.Execution { role; actions = [ action key ] } }
                   :: !batch_buf
               end;
               if role = `Primary then
                 push
                   (Response.Cache_update
                      { Event.cache = Names.flowsdb; op = Event.Create; key;
                        value = "v"; origin = primary; seq = s; taint = None })
             in
             respond primary `Primary;
             List.iter (fun sc -> respond sc `Secondary) secondaries;
             arm_arrival ()))
  in
  let rec batch_tick () =
    (match !batch_buf with
    | [] -> ()
    | rs ->
        Validator.deliver_batch v (List.rev rs);
        batch_buf := []);
    if Time.(Engine.now engine < stop) then
      ignore (Engine.schedule engine ~after:window (fun () -> batch_tick ()))
  in
  arm_arrival ();
  ignore (Engine.schedule engine ~after:window (fun () -> batch_tick ()));
  let domains0 = Jury_par.Pool.domains_spawned () in
  let t0 = Unix.gettimeofday () in
  (* Settle one timeout past the stream so stragglers decide. *)
  Engine.run engine ~until:(Time.add stop (Time.ms 60));
  Validator.flush v;
  let wall = Unix.gettimeofday () -. t0 in
  let decided = Validator.decided_count v in
  { fh_profile = profile.Firehose.name;
    fh_jobs = jobs;
    fh_shards = shards;
    fh_triggers = !serial;
    fh_responses = !responses;
    fh_decided = decided;
    fh_faults = Validator.fault_count v;
    fh_wall_s = wall;
    fh_events_per_s =
      (if wall > 0. then float_of_int (!serial + !responses) /. wall else 0.);
    fh_verdicts_per_s =
      (if wall > 0. then float_of_int decided /. wall else 0.);
    fh_domains_spawned = Jury_par.Pool.domains_spawned () - domains0 }

let sweep ?(seed = 11) ?(duration = Time.ms 400) ?(profile = Firehose.enterprise)
    () =
  List.map
    (fun (jobs, shards) ->
      run_point ~seed ~profile ~duration ~jobs ~shards ())
    [ (1, 1); (1, 4); (2, 2); (2, 4); (4, 4) ]
