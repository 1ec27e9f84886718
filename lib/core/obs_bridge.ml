module Trace = Jury_obs.Trace
module Span = Jury_obs.Span
module Metrics = Jury_sim.Metrics

let record_phase_series ?(prefix = "span/") trace metrics =
  let roots = Span.assemble (Trace.events trace) in
  List.iter
    (fun root ->
      match Span.duration_ns root with
      | None -> () (* still open: trigger never reached a verdict *)
      | Some total_ns ->
          Metrics.record metrics (prefix ^ "total")
            (float_of_int total_ns /. 1e6);
          List.iter
            (fun (phase, ms) ->
              Metrics.record metrics (prefix ^ Trace.phase_name phase) ms)
            (Span.phase_breakdown_ms root))
    roots

let record_validator_shards ?(prefix = "validator/") v metrics =
  for shard = 0 to Validator.shard_count v - 1 do
    let bump field n =
      Metrics.incr metrics ~by:n
        (Printf.sprintf "%sshard%d/%s" prefix shard field)
    in
    let pending, live_epochs = Validator.shard_gauges v ~shard in
    bump "pending" pending;
    bump "live-epochs" live_epochs;
    List.iter
      (fun c -> bump (Counter.name c) (Validator.count ~shard v c))
      Counter.all
  done;
  Metrics.incr metrics ~by:(Validator.current_epoch v) (prefix ^ "epoch")

let record_channel_counters ?(prefix = "channel/") stats metrics =
  List.iter
    (fun (name, (s : Channel.stats)) ->
      let bump field v = Metrics.incr metrics ~by:v (prefix ^ name ^ field) in
      bump "/sent" s.Channel.sent;
      bump "/delivered" s.Channel.delivered;
      bump "/dropped" s.Channel.dropped;
      bump "/duplicated" s.Channel.duplicated;
      bump "/retransmitted" s.Channel.retransmitted)
    stats
