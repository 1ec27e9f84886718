(** Discrete-event simulation engine.

    A single-threaded event loop over simulated {!Time.t}. Components
    schedule closures to run at future instants; the engine executes
    them in (time, insertion) order. The engine makes no attempt to be
    re-entrant: callbacks may schedule or cancel events but must not
    call {!run} themselves. *)

type t

type handle [@@immediate]
(** Names a cancellable event: its slot in the engine's event pool and
    the insertion sequence number it was given there. An int, so
    holding one allocates nothing. Once the event fires or is
    cancelled the slot may hold another event, which the handle does
    not name: the handle only goes stale. *)

val no_handle : handle
(** A handle that names no event: {!is_pending} is [false] and
    {!cancel} is a no-op. For a field that holds no timer yet. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] makes an engine whose root RNG is seeded with
    [seed] (default 42). Events run in (time, insertion) order; only
    {!set_chooser} reorders equal-timestamp events. *)

val now : t -> Time.t
(** Current simulated time. *)

val now_ns : t -> int
(** Current simulated time in nanoseconds — the timestamp base for the
    {!Jury_obs} trace layer. *)

val trace : t -> Jury_obs.Trace.t
(** The causal-trace sink components emit into. Defaults to a disabled
    {!Jury_obs.Trace.null} trace, so emission is a no-op until a caller
    attaches a real sink with {!set_trace}. *)

val set_trace : t -> Jury_obs.Trace.t -> unit
(** Attach a trace sink; may be called at any point before or during a
    run. Tracing consumes no randomness and schedules no events, so it
    never perturbs a seeded simulation. *)

val rng : t -> Rng.t
(** The engine's root RNG; components usually [Rng.split] it once at
    construction. *)

val schedule : t -> after:Time.t -> (unit -> unit) -> unit
(** [schedule t ~after f] runs [f] at [now t + after], with an
    {!Footprint.opaque} footprint. Scheduling allocates nothing beyond
    [f] itself (and amortised growth of the queue). *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule_at t ~at f] runs [f] at absolute time [at]; raises
    [Invalid_argument] if [at] is in the past. *)

val schedule_fixed : t -> after:Time.t -> (unit -> unit) -> unit
(** [schedule_fixed t ~after f] is [schedule t ~after f], for a caller
    that schedules many events the same [after] ahead (a validation
    timeout). The event runs at the same instant, in
    the same [(time, insertion)] order, as through {!schedule}; only
    where it waits differs. The first few distinct delays each get a
    FIFO lane, which takes and yields an event in O(1) because events
    put on it arrive in order; a delay first seen once the lanes are
    taken goes to the heap, as with {!schedule}. *)

val schedule_on : t -> Footprint.t -> after:Time.t -> (unit -> unit) -> unit
(** [schedule_on t fp ~after f] is [schedule t ~after f] for an event
    whose closure touches only the resources [fp] names. A footprint
    never affects execution, only how the schedule explorer prunes
    equal-timestamp orderings (see {!set_chooser}). It is a required
    argument, not an optional one, so declaring it allocates nothing. *)

val schedule_on_at : t -> Footprint.t -> at:Time.t -> (unit -> unit) -> unit
(** [schedule_on_at t fp ~at f] is {!schedule_at} with footprint [fp]. *)

val timer :
  t -> Footprint.t -> fixed:bool -> after:Time.t -> (unit -> unit) -> handle
(** [timer t fp ~fixed ~after f] is [schedule_on t fp ~after f] (through
    a fixed-delay lane if [fixed], as {!schedule_fixed}), returning a
    handle that {!cancel} takes. The one cancellable entry point; it
    allocates no more than {!schedule_on}. Raises [Invalid_argument]
    if more than [2^24] events are pending. *)

val cancel : t -> handle -> unit
(** Cancels a pending event; a no-op if it already ran or was cancelled,
    even once its slot holds another event. The event's closure is
    dropped at once, so everything it held becomes collectable even
    though the dead event stays queued until its timestamp (no chooser
    sees it). It is popped there like any other event — advancing
    the clock and counting in {!executed_events} — so cancelling never
    changes event counts or the final clock. *)

val is_pending : t -> handle -> bool
(** Whether the event is still queued (neither fired nor cancelled). *)

val every :
  t -> period:Time.t -> ?jitter:Time.t -> ?footprint:Footprint.t ->
  (unit -> unit) -> handle
(** [every t ~period f] runs [f] every [period], starting one period
    from now, with optional uniform [jitter] added to each firing.
    Returns the handle of the whole chain; cancelling it stops the
    recurrence and, as for {!cancel} of a one-shot event, drops [f] at
    once although the chain's next link stays queued until its
    timestamp. Each link carries [footprint] (default opaque).

    RNG ownership: a jittered recurrence draws one [Rng.int] from the
    engine's {e root} RNG at every re-arm — i.e. at creation and again
    each time [f] fires — not from a private split. The draw order of
    the root RNG is therefore part of a seeded simulation's observable
    behaviour: any refactor that adds, removes or reorders root-RNG
    consumers (an [every ~jitter], a component calling {!rng} +
    [Rng.split], ...) changes every subsequent split and so the whole
    run. Components must split once at construction in a fixed order
    and draw only from their own split thereafter; a regression test
    pins the jitter draw order. Run-level parallelism (Jury_par) is
    unaffected: each run owns a whole engine, so no RNG is ever shared
    across runs. *)

(** {1 Schedule exploration}

    A {e schedule} of a deterministic simulation is a tie-break order
    on the event queue (the heap and the fixed-delay lanes): events at distinct timestamps execute in time
    order whatever happens, so the only scheduling freedom is which of
    several equal-timestamp events runs first. The chooser hook hands
    that freedom to an external scheduler (the [Jury_mc] explorer);
    with no chooser installed the engine is byte-for-byte the seed. *)

type candidate = {
  cand_seq : int;           (** insertion sequence, the stable event id *)
  cand_at : Time.t;         (** the tied timestamp (equal across the array) *)
  cand_footprint : Footprint.t;
      (** as declared at scheduling; {!Footprint.opaque} if not *)
}

type chooser = candidate array -> int
(** Called at every {e choice point} — two or more live events tied at
    the minimal timestamp — with the candidates in ascending insertion
    order; returns the index of the event to run next. Index 0
    reproduces the default FIFO order. Raising aborts the run. *)

val set_chooser : t -> chooser option -> unit
(** Install (or remove) the tie chooser. Cancelled events never reach
    the chooser: they drain silently first, so a chooser always sees
    [>= 2] live candidates. *)

val run : ?until:Time.t -> t -> unit
(** Drains the event queue, advancing simulated time, until the queue
    is empty or [until] is reached (events scheduled after [until]
    remain pending). *)

val step : t -> bool
(** Executes the single next event; [false] if the queue was empty. *)

val pending_events : t -> int
(** Number of queued events (an upper bound on live events;
    cancelled events are counted until they drain). *)

val executed_events : t -> int
(** Events this engine has popped so far, cancelled ones included
    (they are counted where they drain, without running). *)

val total_executed : unit -> int
(** Process-wide executed-event count, summed over every engine on
    every domain; flushed to the shared counter once per {!run} call.
    The bench derives its events/sec figures from deltas of this. *)
