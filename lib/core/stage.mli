(** Staged validation pipeline over the {!Jury_par.Pool} domain pool,
    for a bare validator (the firehose benchmark measures it; no
    deployment runs it).

    [attach] turns a freshly created validator into a pipeline facade:
    the caller's simulation keeps running on the main domain, but
    every registration and response delivery becomes an item on a
    bounded per-shard SPSC ring ({!Jury_par.Spsc}), drained by up to
    [jobs - 1] consumer domains into single-shard replica validators.
    Each replica replays the facade's simulated timestamps on a
    private engine, so validation timers fire at the same instants
    they would inline. {!Validator.flush} on the facade first sends
    end-of-stream, joins the consumers and merges the replicas back —
    verdicts, counters and still-pending triggers — so the flush and
    every result accessor after it give the serial validator's
    answers.

    Rings apply back-pressure: a full ring makes the producer (the
    simulation) spin until the consumer catches up, bounding memory by
    1024 items per shard.

    The facade's config must have no retransmit, adaptive timeout,
    inflight cap or policy rules, and its engine no trace — see the
    implementation notes in [stage.ml] for why each condition is
    load-bearing. *)

val attach :
  pool:Jury_par.Pool.t ->
  jobs:int ->
  Validator.config ->
  Validator.t ->
  unit
(** [attach ~pool ~jobs cfg facade] installs pipeline hooks on
    [facade], whose replicas are built from [cfg] (the same validated
    config the facade was created with). [jobs] is the
    intra-run parallelism budget: [jobs - 1] consumer domains, floored
    at one so [jobs > 1] always pipelines. *)
