(** The machine-checkable invariants each generated case is held to.

    Oracles are grouped into six families, one per soundness claim
    the codebase accumulated over PR 1–4 and the policy compiler:

    - [conservation] — every registered trigger reaches exactly one
      verdict (or a counted retirement): after flush nothing is
      pending, the verdict list, alarm list, detection-time samples and
      {!Jury.Report} roll-ups all agree with the validator's counters —
      and a second execution of the same case reproduces the run
      bit-identically (the replay guarantee every other oracle rests
      on).
    - [sharding] — verdicts are independent of the shard count: the
      case at [shards = 1] and [shards = 4] yields equal fingerprints.
    - [batching] — [deliver_batch] is equivalent to per-event
      [deliver]: a synthetic response stream (random registrations,
      omissions, duplicates, divergent snapshots and actions) drives a
      bare validator to the same verdicts however it is chunked,
      whatever the shard count, and when a {!Jury.Stage} runs it on
      shard replicas (skipped for cases with an in-flight cap, which
      the stage does not support).
    - [parallel] — a mini-sweep of the case fanned out on a
      {!Jury_par.Pool} returns byte-identical results at [jobs = 1] and
      [jobs = 2].
    - [channel] — per-link counter conservation
      ([sent = delivered + dropped], retransmits only when configured,
      no drops or duplicates on a channel whose rates are zero).
    - [policy] — the {!Jury_policy.Compiled} decision structure agrees
      with the {!Jury_policy.Engine} reference interpreter
      verdict-for-verdict on a rule set and query batch fuzzed from the
      case seed (see {!Policy_gen}); the only family that never
      executes the deployment.

    Each oracle receives a {!ctx} whose base outcome is computed
    lazily and shared across oracles, so a case is executed once for
    the families that only inspect a single run.

    The battery is executor-polymorphic: a context built with
    {!ctx_with} routes the base run {e and} every oracle re-execution
    (replay, shard/reliability overrides, the mini parallel sweep)
    through the caller's executor. The schedule explorer uses this to
    assert the full battery on a run pinned to one explored schedule;
    {!ctx} keeps the plain {!Run.execute} path. An executor must be
    safe to call from worker domains (the [parallel] family fans out on
    a {!Jury_par.Pool}): derive per-call state inside each invocation,
    never share mutable state across calls. *)

type result = Pass | Fail of string

type executor =
  ?shards:int -> ?batch_us:int option -> Case.t -> Run.outcome
(** How this battery run turns a case into an outcome; the optional
    axes mirror {!Run.execute}. *)

type ctx = {
  case : Case.t;
  execute : executor;         (** runs every (re-)execution the oracles need *)
  base : Run.outcome Lazy.t;  (** the case run as generated, memoised *)
}

val ctx : Case.t -> ctx
(** A context whose base outcome is not yet forced; executes through
    plain {!Run.execute}. *)

val ctx_with : execute:executor -> Case.t -> ctx
(** A context routing all executions through [execute] (base outcome
    [execute case], forced lazily). *)

type t = {
  name : string;    (** stable identifier, e.g. ["verdict-conservation"] *)
  family : string;  (** one of the six families above *)
  doc : string;     (** one-line description, surfaced by the CLI *)
  check : ctx -> result;
}

(** The individual invariant checks, in battery order. {!Registry}
    registers each of these exactly once with its family, name and doc;
    resolve names and enumerate the battery through {!Registry}, never
    here. *)

val verdict_conservation : ctx -> result
val report_consistency : ctx -> result
val replay_determinism : ctx -> result
val shard_independence : ctx -> result
val batch_equivalence : ctx -> result
val parallel_identity : ctx -> result
val channel_conservation : ctx -> result
val policy_equivalence : ctx -> result

val check_run : oracles:t list -> ctx -> (t * string) list
(** Run the given oracles against a prebuilt context — the
    single-completed-run entry point shared by [jury_check] and
    [jury_mc]; returns the failures as (oracle, message) pairs. For the
    default full battery use {!Registry.check_run}. *)

val check_case : oracles:t list -> Case.t -> (t * string) list
(** [check_run ~oracles (ctx case)]: run the oracles against one case;
    empty result means the case upholds every invariant. *)
