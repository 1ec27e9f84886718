(** A fixed-size domain pool for embarrassingly parallel experiment
    fan-out.

    Every paper figure sweeps dozens of independent deterministic
    simulation runs; each run owns its engine, RNG and network, so runs
    can execute on separate domains with no shared state. The pool fans
    a list of tasks out to at most [jobs] concurrently running domains
    (the submitting domain works too) and returns results in submission
    order, so serial ([jobs = 1]) and parallel runs of a deterministic
    task list produce identical result lists.

    Determinism contract for callers: a task must build its own
    {!Jury_sim.Engine.t} (and thus its own RNG tree) inside the task
    body and must not touch mutable state shared with other tasks.
    Under that contract result lists are byte-for-byte independent of
    [jobs] and of scheduling order.

    Worker domains are {e persistent}: the first parallel
    {!map_ordered} call spawns up to [jobs - 1] workers and later
    calls reuse them, so a bench sweep of hundreds of small fan-outs
    pays the domain-spawn cost once instead of per call
    ({!domains_spawned} exposes the process-wide spawn count the bench
    reports). Workers idle on a condition variable between calls and
    are joined automatically at process exit. *)

type t

type error = {
  task_index : int;  (** position of the failed task in the input list *)
  message : string;  (** [Printexc.to_string] of the escaping exception *)
  backtrace : string;
}

exception Tasks_failed of error list
(** Raised by {!map_ordered} after the whole sweep has run, carrying
    one {!error} per failed task — a failed run reports which config
    died instead of killing the sweep. *)

val create : ?jobs:int -> unit -> t
(** [create ?jobs ()] makes a pool of [jobs] workers (clamped to at
    least 1). Default: the [JURY_JOBS] environment variable if set to a
    positive integer, otherwise [Domain.recommended_domain_count () - 1]
    (leaving one core for the submitting context), floored at 1. *)

val jobs : t -> int

val default_jobs : unit -> int
(** The default worker count described at {!create}. *)

val map_ordered : t -> 'a list -> ('a -> 'b) -> 'b list
(** [map_ordered t xs f] runs [f] on every element of [xs], at most
    [jobs t] at a time, and returns the results in the order of [xs].
    Every task runs to completion even if some fail; if any did,
    {!Tasks_failed} is raised with all failures. [jobs t = 1] (or a
    single-element [xs]) degenerates to an in-place [List.map] with no
    domain spawns. *)

val map_grid :
  t -> 'r list -> 'c list -> ('r -> 'c -> 'b) -> ('r * 'b list) list
(** [map_grid t rows cols f] runs [f r c] for every cell of
    [rows] × [cols] as its own {!map_ordered} task (row-major) and
    returns each row with its results, both in input order. *)

val try_map_ordered : t -> 'a list -> ('a -> 'b) -> ('b, error) result list
(** Like {!map_ordered} but returns per-task results instead of
    raising, for callers that want to salvage the survivors. *)

val default : unit -> t
(** The ambient pool used by experiment entry points when no explicit
    pool is passed; created on first use with default [jobs]. *)

val set_default_jobs : int -> unit
(** Install the ambient pool — how [--jobs]/[JURY_JOBS] from
    [bench/main.exe] and [bin/jury_cli.exe] reach the experiment layer.
    Call from the main domain before any parallel work. *)

(** {1 Long-running async tasks}

    The staged validation pipeline parks its per-shard consumers on
    the pool for the whole duration of a run. Unlike {!map_ordered}
    items, such a task must {e start promptly} — an SPSC producer
    blocks on a consumer that never gets scheduled — so {!async}
    reuses an idle persistent worker when one is free and otherwise
    spawns (a persistent worker while under the [jobs - 1] budget, a
    dedicated domain beyond it). Liveness therefore never depends on
    pool capacity, and an [async] task can never deadlock a
    concurrent {!map_ordered} sweep: the sweep's submitting domain
    drains every item itself if no worker frees up. *)

type ticket

val async : t -> (unit -> unit) -> ticket
(** [async t f] starts [f] on a domain of its own (pool worker or
    dedicated fallback) and returns a ticket to {!await}. *)

val await : ticket -> unit
(** Blocks until the task finishes; re-raises (with its backtrace) any
    exception the task died with. *)

val persistent_workers : t -> int
(** Number of persistent worker domains currently attached to [t]. *)

val shutdown : t -> unit
(** Joins [t]'s persistent workers and marks the pool terminated; [t]
    must not be used afterwards (subsequent sweeps run serially on the
    submitting domain). Pools are otherwise shut down at process exit,
    which is fine for the handful of long-lived pools a process
    creates — but a {e throwaway} pool must be shut down explicitly,
    or each one parks its workers until exit and a loop of them runs
    into the runtime's domain cap. Idempotent. *)

val domains_spawned : unit -> int
(** Process-wide count of domains ever spawned on behalf of any pool
    (persistent workers and dedicated {!async} fallbacks). Bench
    reports deltas of this: a sweep of N [map_ordered] calls costs at
    most [jobs - 1] spawns total, where it used to cost
    [N * (jobs - 1)]. *)
