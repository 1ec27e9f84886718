(** The out-of-band validator: files the response stream by trigger
    taint τ and runs timers, retransmission and the in-flight bound;
    the verdict itself (Algorithm 1 of the paper) is {!Decide.verdict}. *)

module Types = Jury_controller.Types

type retransmit = Decide.retransmit = {
  max_retries : int;  (** retry cap per straggling secondary *)
}
(** Retransmission of a trigger to straggling secondaries: the first
    retry fires after 0.4·θτ, and each later one waits twice as long
    as the one before (backoff 2.0). *)

(** The validator's parameters. {!Jury_config.make} builds the one
    record in [lib/] that is made from scratch; everything else copies
    it and updates the three lookup closures (see
    {!Jury_config.validator}). The validator reads no replication
    factor: [k] is the replicator's business ({!Deployment.config}).
    Defined in {!Decide}, whose {!Decide.verdict} reads it. *)
type config = Decide.config = {
  timeout : Jury_sim.Time.t;   (** validation timeout θτ (the maximum,
                                   when adaptive) *)
  adaptive_timeout : bool;
      (** size θτ from recent completion latencies, RTO-style
          (srtt + 8·rttvar, twice TCP's headroom because completion
          latencies are heavy-tailed), clamped to at least 10 ms — the
          §VIII-1 extension the paper leaves to future work *)
  state_aware : bool;
      (** restrict consensus to equal-snapshot replicas; [false] gives
          the naive-majority ablation *)
  nondet_rule : bool;
      (** all-distinct ⇒ non-faulty; [false] for ablation *)
  policies : Jury_policy.Engine.t;
  master_lookup : Jury_openflow.Of_types.Dpid.t -> int option;
      (** for the policy engine's local/remote destination attribute *)
  term_lookup : unit -> int;
      (** current leadership term, stamped into each pending trigger at
          registration (and onto its alarm); [fun () -> 0] when
          election is disabled *)
  ack_peers_of : int -> int list;
      (** the static peers whose cache-event acks the validator expects
          for writes originating at a given node *)
  retransmit : retransmit option;
      (** when set, a secondary that has not responded by
          0.4·θτ gets the trigger re-replicated (via
          {!set_retransmit_handler}), with exponential backoff (2.0)
          up to [max_retries] rounds; [None] = seed behaviour *)
  degraded_quorum : int option;
      (** when set, a timed-out external trigger whose arrived
          equivalent-view responses all agree — and number at least
          this quorum — is decided [Ok_degraded] instead of raising a
          response-timeout alarm; [None] = seed behaviour *)
  shards : int;
      (** verdict-state shards; taints hash to a shard, each shard owns
          its pending table, retransmission timer wheel and verdict
          counters. Always a power of two ({!Jury_config.make} rounds
          its hint up); 1 = the seed's flat table *)
  max_inflight : int option;
      (** high-water mark on in-flight (undecided) triggers; when
          registration would exceed it the undecided triggers of the
          oldest registration epoch are force-expired with
          {!Alarm.Overload} verdicts instead of growing without bound.
          [None] = unbounded (seed behaviour) *)
}

val trigger_footprint : config -> Types.Taint.t -> Jury_sim.Footprint.t
(** The schedule explorer's footprint for an event that touches only
    one trigger's validation entry: that taint, unless [adaptive_timeout]
    or [max_inflight] couples triggers validator-wide, which makes it
    opaque. *)

type t

val create : Jury_sim.Engine.t -> config -> t
(** A fresh validator with all counters at zero; timers are scheduled
    on the given engine. *)

val register_external :
  t -> taint:Types.Taint.t -> at:Jury_sim.Time.t -> primary:int ->
  secondaries:int list -> unit
(** The replicator announces an intercepted external trigger: which
    replica is primary and which secondaries received the replica. The
    validation timer starts here. *)

val reattribute :
  t -> taint:Types.Taint.t -> primary:int -> term:int -> bool
(** Mid-flight leadership change: the in-flight trigger's primary died
    and the replicator is re-driving the trigger at the new master.
    Moves the attribution to [primary], stamps [term] (carried onto
    the eventual alarm), and restarts the validation timer so the
    trigger is judged on the new master's responses instead of timing
    out against the dead one. Returns [false] (and does nothing) when
    the trigger is unknown or already decided. *)

val deliver : t -> Response.t -> unit
(** A response arrives on the out-of-band channel. *)

val deliver_batch : t -> Response.t list -> unit
(** Deliver a whole simulated tick's worth of responses in one call:
    the batch is partitioned by shard (arrival order preserved within
    each shard) and each non-empty shard ingests its sub-batch in one
    go, bumping that shard's batch counters. [deliver_batch t [r]] and
    [deliver t r] drive identical state transitions. *)

val set_retransmit_handler : t -> (Types.Taint.t -> secondary:int -> unit) -> unit
(** Called once per straggling secondary per retry round when
    [config.retransmit] is set; the deployment re-replicates the stored
    trigger over its (lossy) channel. Default: no-op. *)

val on_response : t -> (Response.t -> unit) -> unit
(** Append an observer invoked for every delivered response (audit
    trail, metrics); observers never affect validation. *)

val on_verdict : t -> (Alarm.t -> unit) -> unit
(** Append an observer called for every verdict, faulty or not, at
    decision time; filter on {!Alarm.is_fault} for alarms only. *)

(** {1 Results} *)

(** The validator keeps every verdict in a {!Verdict_log}: four words
    for a common one, a whole {!Alarm.t} for a fault or any verdict
    with suspects or a detail. *)

val verdicts : t -> Alarm.t list
(** All decided verdicts, oldest first. Rebuilt from the log on every
    call: O(n) time and about 19 words per verdict. A caller that needs
    less should prefer {!fold_since}, {!alarms}, the counters or
    {!on_verdict}. *)

val fold_since :
  t -> since:Jury_sim.Time.t -> init:'a ->
  ('a -> Alarm.verdict -> trigger_at:Jury_sim.Time.t ->
   decided_at:Jury_sim.Time.t -> 'a) -> 'a
(** {!Verdict_log.fold_since} over the log: the verdicts decided at or
    after [since], newest first, with no {!Alarm.t} built. *)

val alarms : t -> Alarm.t list
(** Only the faulty ones, oldest first. Reads only the log's side store
    of whole alarms. *)

val count : ?shard:int -> t -> Counter.t -> int
(** A counter summed over shards, or one shard's value with [~shard].
    Reading the sum allocates nothing. *)

val counters : t -> (Counter.t * int) list
(** Every counter, summed over shards, in {!Counter.all} order. *)

(** Shorthands for {!count}, kept for existing callers. *)

val decided_count : t -> int
(** Verdicts reached so far ([= List.length (verdicts t)]). *)

val fault_count : t -> int
(** Faulty verdicts ([= List.length (alarms t)]). *)

val batch_count : t -> int
val late_count : t -> int
val duplicate_count : t -> int
val straggler_count : t -> int

val pending_count : ?shard:int -> t -> int
(** Registered triggers not yet decided, over all shards or in one
    shard with [~shard]. *)

val current_epoch : t -> int
(** The registration epoch currently being filled: registrations so
    far divided by the epoch length ([max 1 (max_inflight / 4)], or
    1024 without a cap). *)

(** {1 Shard introspection} *)

val shard_count : t -> int
(** Number of verdict-state shards ([config.shards]). One shard's
    in-flight triggers are [pending_count ~shard], its counters
    [count ~shard]. *)

val flush : t -> unit
(** Force-decide everything still pending (end of an experiment).
    Shards flush in index order; each shard's table is folded exactly
    like the seed's single flat table. On a staged validator it first
    drains the stage and merges its replicas back (see
    {!set_pipeline_hooks}). *)

val current_timeout_value : t -> Jury_sim.Time.t
(** The θτ a trigger registered now would get (adaptive or fixed). *)

(** {1 Staged-pipeline plumbing}

    Used by {!Stage} to run a bare validator's validation on
    shard-replica validators, replayed across the domain pool, while
    this validator stays the facade its caller talks to. Not a general
    extension point: the hooks divert {!register_external},
    {!deliver}/{!deliver_batch} and {!flush} wholesale, and the stage
    merges replica state back with {!absorb_pipeline_shard} +
    {!finalize_pipeline_merge} before any result accessor is read. *)

type pipeline_hooks = {
  pl_register :
    taint:Types.Taint.t -> at:Jury_sim.Time.t -> primary:int ->
    secondaries:int list -> unit;
  pl_batch : at:Jury_sim.Time.t -> Response.t list -> unit;
  pl_drain : at:Jury_sim.Time.t -> unit;
}

val set_pipeline_hooks : t -> pipeline_hooks -> unit
(** Divert ingestion into the hooks. While they are installed the
    alarm/verdict handlers and response observers of this validator do
    {e not} fire (replica verdicts surface only through the merged
    result accessors), so a staged validator must install none.

    {!flush} is the end-of-run barrier: it clears the hooks and calls
    [pl_drain], which replays what is still buffered and merges every
    shard replica back into this facade — decided verdicts, counters and
    still-pending triggers alike — before force-deciding what is left;
    the merged state is then read out through the normal accessors. *)

val observe_mirror : t -> Response.t -> unit
(** Apply a response's FLOWSDB cache update (if any) to this
    validator's flow mirror without validating it — how a shard
    replica tracks writes owned by {e other} shards so its sanity
    check sees the same mirror as the serial validator. *)

val shard_of_taint : t -> Types.Taint.t -> int
(** The shard a taint hashes to ({!Jury_store.Taint.hash}). *)

val absorb_pipeline_shard : t -> shard:int -> t -> unit
(** [absorb_pipeline_shard t ~shard rep] folds single-shard replica
    [rep]'s counters, registration count, verdicts and pending (still
    undecided) triggers into [t]'s shard [shard]. Call once per
    replica after its last item has replayed. *)

val finalize_pipeline_merge : t -> unit
(** After all replicas are absorbed: sort the merged verdict stream
    into a deterministic decision order. The sort goes through a list
    of alarms, so for a moment it holds about 19 words per verdict. *)
