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
(** Process-wide count of persistent workers ever spawned, by any
    pool. Bench reports deltas of this: a sweep of N [map_ordered]
    calls costs at most [jobs - 1] spawns in total, not
    [N * (jobs - 1)]. *)
