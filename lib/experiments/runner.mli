(** Drives a fault scenario end-to-end: builds a JURY-enhanced cluster,
    arms the fault, provokes it, and reports whether JURY raised the
    expected alarm against the faulty replica. This is the machinery
    behind the §VII-A1 detection experiments, the `detection` bench and
    the fault test-suite. *)

type report = {
  scenario : Jury_faults.Scenarios.t;
  detected : bool;
      (** an expected alarm fired with the faulty replica among the
          suspects *)
  detection_time_ms : float option;  (** of the first matching alarm *)
  matching_alarms : Jury.Alarm.t list;
  other_alarms : Jury.Alarm.t list;
  verdict_count : int;
}

val run :
  ?seed:int -> ?nodes:int -> ?k:int -> ?faulty:int ->
  ?extra_slow:int list ->
  ?switches:int -> ?random_secondaries:bool ->
  ?trace:Jury_obs.Trace.t ->
  ?shards:int -> ?max_inflight:int -> ?batch:Jury_sim.Time.t ->
  Jury_faults.Scenarios.t -> report
(** Defaults match the paper's worst case: 7 nodes, full replication
    (k = 6), faulty replica 2, a linear 24-switch topology. [extra_slow]
    marks additional replicas as timing-faulty (the m = 2 setting).
    [trace], when given, is attached to the engine before anything is
    scheduled, so it observes the full run. [shards], [max_inflight]
    and [batch] pass through to {!Jury.Jury_config.make} via
    {!Jury_faults.Scenarios.jury_config}.

    The deployment comes up as in {!Setup.make}, except that the
    scenario's RNG is split after install and before {!Setup.boot}, so
    a fault can arm before the cluster converges. *)

val run_matrix :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?repeats:int ->
  ?nodes:int -> ?k:int -> ?faulty:int -> ?extra_slow:int list ->
  ?switches:int ->
  Jury_faults.Scenarios.t list ->
  (Jury_faults.Scenarios.t * report list) list
(** [run_matrix scenarios] runs every scenario [repeats] times (default
    1), repeat [i] seeded [seed + 13 i] (the detection-matrix
    convention), fanning the (scenario, repeat) cells out on [pool]
    (default {!Jury_par.Pool.default}). Each cell builds its own engine
    inside its task, so results are byte-identical whatever the worker
    count. Reports come back grouped per scenario, repeats in order. *)

val pp_report : Format.formatter -> report -> unit
