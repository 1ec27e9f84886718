(** Executes a generated case end-to-end and distils the run into the
    machine-checkable observations the oracles assert over.

    One {!execute} builds a fresh engine, network, cluster and JURY
    deployment from the case alone (no ambient state), drives the
    workload and fault schedule, flushes the validator, and snapshots
    every counter the invariants mention. Equivalence oracles re-run
    the same case with exactly one axis overridden and compare
    {!fingerprint}s. *)

(** The verdict-relevant residue of a run. Two runs of equivalent
    configurations must produce equal fingerprints; [verdict_lines] is
    sorted so the comparison is insensitive to the order in which
    shards fold their tables at flush time. *)
type fingerprint = {
  verdict_counts : (Jury.Counter.t * int) list;
      (** decided, faulty, unverifiable, degraded and overload — not the
          ingestion counters, which shard count and batching legitimately
          change; those are in {!outcome} *)
  verdict_lines : string list;
      (** one canonical line per verdict (taint, verdict, primary,
          suspects, trigger and decision times), sorted *)
  report : string;  (** rendered {!Jury.Report.t} *)
}

(** Everything a single run exposes to the oracles. *)
type outcome = {
  fp : fingerprint;
  pending_after_flush : int;
  alarm_count : int;       (** [Validator.alarms] length *)
  detection_count : int;   (** [Jury.Report.detection_ms] length *)
  counters : (Jury.Counter.t * int) list;  (** {!Jury.Validator.counters} *)
  epoch : int;
  links : (string * Jury.Channel.stats) list;
  totals : Jury.Channel.stats;
}

val count : outcome -> Jury.Counter.t -> int
(** One of the outcome's validator counters. *)

val diff_counters :
  (Jury.Counter.t * int) list -> (Jury.Counter.t * int) list -> string option
(** First counter whose values differ, as ["<name> <a> vs <b>"]; both
    lists must name the same counters. *)

val fingerprint_of_validator : Jury.Validator.t -> fingerprint
(** Distil a validator's verdict state (used both by {!execute} and by
    oracles that drive a bare validator directly). *)

val fingerprint_equal : fingerprint -> fingerprint -> bool
(** Structural equality (fingerprints are plain data). *)

val diff_fingerprint : fingerprint -> fingerprint -> string option
(** [None] when equal; otherwise a short human-readable description of
    the first divergence, for failure messages. *)

val schedule_blind : fingerprint -> fingerprint
(** The residue a schedule (equal-timestamp execution order) may never
    change: verdict counts plus each verdict's [taint-class | verdict |
    primary | suspects] line with the taint's serial wildcarded and the
    trigger/decision timestamps dropped (tie order legitimately shifts
    serial assignment and per-trigger timings). The report is cleared.
    The [Jury_mc] explorer compares schedules through this
    projection. *)

val diff_schedule_blind : fingerprint -> fingerprint -> string option
(** {!diff_fingerprint} on the {!schedule_blind} projections. *)

val execute :
  ?chooser:Jury_sim.Engine.chooser -> ?deterministic:bool ->
  ?shards:int -> ?batch_us:int option -> ?trace:Jury_obs.Trace.t ->
  Case.t -> outcome
(** Run the case (optionally with one axis overridden, see
    {!Case.jury_config}) and collect the outcome. Deterministic: equal
    arguments give equal outcomes, whatever ran before in the process.

    [chooser] installs an equal-timestamp tie chooser on the run's
    engine ({!Jury_sim.Engine.set_chooser}) — the schedule explorer's
    entry point; omitted, the run is the seed's FIFO order.
    [deterministic] (default false) collapses every stochastic latency:
    {!Jury_controller.Profile.deterministic} on the controller profile
    and [deterministic_latencies] on the deployment. The explorer
    requires both together. [trace] attaches a causal-trace sink to
    the run's engine before anything is scheduled; trace emission draws
    no randomness, so an attached trace never perturbs the run —
    coverage extraction reads span phases from it without disturbing
    blind determinism. *)
