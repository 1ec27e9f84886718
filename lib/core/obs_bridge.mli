(** Bridge from the causal trace to experiment metrics.

    Turns closed root spans in a {!Jury_obs.Trace.t} into per-phase
    latency series in a {!Jury_sim.Metrics.t}, so detection-time CDFs
    can be decomposed by phase (replication vs pipeline service vs
    validation, etc.). *)

val record_phase_series :
  ?prefix:string -> Jury_obs.Trace.t -> Jury_sim.Metrics.t -> unit
(** [record_phase_series trace metrics] records, for every closed root
    span, the end-to-end duration under [prefix ^ "total"] and each
    phase's summed child-span duration under
    [prefix ^ Jury_obs.Trace.phase_name phase], all in milliseconds.
    Open (never-closed) roots are skipped. [prefix] defaults to
    ["span/"]. *)

val record_validator_shards :
  ?prefix:string -> Validator.t -> Jury_sim.Metrics.t -> unit
(** Bump one metrics counter per shard per {!Counter.t}
    ([prefix ^ "shard<i>/" ^ Counter.name c], e.g. ["/decided"],
    ["/batches"]) and per shard gauge (["/pending"], ["/live-epochs"]),
    plus the current registration epoch under [prefix ^ "epoch"].
    [prefix] defaults to ["validator/"]. *)

val record_channel_counters :
  ?prefix:string -> (string * Channel.stats) list -> Jury_sim.Metrics.t -> unit
(** Bump one metrics counter per link per field
    ([prefix ^ link ^ "/sent"], ["/delivered"], ["/dropped"],
    ["/duplicated"], ["/retransmitted"]) from a
    {!Deployment.channel_stats} listing. [prefix] defaults to
    ["channel/"]. *)
