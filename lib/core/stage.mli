(** Staged validation over the {!Jury_par.Pool} domain pool, for a
    bare validator (the firehose benchmark measures it; no deployment
    runs it).

    [attach] turns a freshly created validator into a pipeline facade:
    the caller's simulation keeps running on its own domain, but every
    registration and response delivery becomes an item in a per-shard
    buffer. When one shard has buffered 1024 items, and again at
    {!Validator.flush}, the simulation pauses while every buffer
    replays, in push order, into its single-shard replica validator;
    the shards are dealt round-robin into at most [jobs] groups, one
    {!Jury_par.Pool.map_ordered} task each. Each replica replays the
    facade's simulated timestamps on a private engine, so validation
    timers fire at the same instants they would inline. The flush then
    advances every replica to the drain instant and merges the
    replicas back — verdicts, counters and still-pending triggers — so
    the flush and every result accessor after it give the serial
    validator's answers.

    A replica cannot reproduce what couples it to other shards or to
    the live deployment, so the facade's config must have
    - no [retransmit]: a replica's retransmit handler is the no-op
      default, so no retry would reach a secondary;
    - no [adaptive_timeout]: a replica's θτ estimator would see only
      its own shard's completions;
    - no [max_inflight]: overload epochs span every shard;
    - no policy rules: a replica would read the live mastership from
      another domain.

    A trace on the facade's engine misses the replicas' validator
    spans: their engines carry no trace. *)

val attach :
  pool:Jury_par.Pool.t ->
  jobs:int ->
  Validator.config ->
  Validator.t ->
  unit
(** [attach ~pool ~jobs cfg facade] installs pipeline hooks on
    [facade], whose replicas are built from [cfg] (the same validated
    config the facade was created with). [jobs] bounds the replay
    tasks of one chunk, and [pool] runs them. Raises
    [Invalid_argument] naming every condition above that [cfg]
    violates. *)
