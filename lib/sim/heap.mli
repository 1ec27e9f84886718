(** Imperative binary min-heap, the core of the event queue.

    Ties are broken by an insertion sequence number supplied by the
    caller. The default tie-breaker is FIFO on that number, which gives
    the arrival ordering of simultaneous events that a deterministic
    discrete-event simulation requires; a heap can instead be created
    with any strict total order on sequence numbers (the hook the
    schedule explorer builds on), and {!tied_front}/{!remove_seq} let a
    scheduler inspect and resolve a timestamp tie one event at a
    time.

    Representation: the priorities live in unboxed [int] arrays and
    each payload sits at a stable slot of a separate array, so {!push},
    {!min_key}, {!min_value} and {!drop_min} allocate nothing (beyond
    amortised growth) and a sift never touches a payload. *)

type 'a t

type tie = int -> int -> bool
(** [tie a b] orders the insertion sequence numbers of two equal-key
    elements: [true] means the element inserted as [a] pops before the
    one inserted as [b]. A tie-breaker must be a strict total order on
    the sequence numbers the caller supplies (irreflexive, transitive,
    total) or the pop order is unspecified. *)

val fifo : tie
(** [( < )] — first inserted pops first. The default, and the seed's
    documented behaviour. *)

val lifo : tie
(** [( > )] — last inserted pops first; the exact reverse of {!fifo}
    on any set of equal-key elements. *)

val create : ?tie:tie -> dummy:'a -> unit -> 'a t
(** An empty heap breaking key ties with [tie] (default {!fifo}).
    [dummy] fills every payload slot that holds no queued element: a
    slot is reset to it as soon as its element is removed, so the heap
    never keeps a popped payload reachable. [dummy] itself stays
    reachable for the heap's lifetime, so it should own nothing big. *)

val length : 'a t -> int
(** Number of queued elements. *)

val is_empty : 'a t -> bool
(** [length h = 0]. *)

val push : 'a t -> key:Time.t -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val min_key : 'a t -> Time.t
(** The minimum's key. Allocates nothing; raises [Invalid_argument] if
    empty. *)

val min_value : 'a t -> 'a
(** The minimum's payload. Allocates nothing; raises
    [Invalid_argument] if empty. *)

val drop_min : 'a t -> unit
(** Removes the minimum, releasing its slot to [dummy]. Allocates
    nothing; raises [Invalid_argument] if empty. Together with
    {!min_key} and {!min_value} this is the event loop's pop. *)

val pop : 'a t -> (Time.t * int * 'a) option
(** Removes and returns the minimum, or [None] if empty. Allocates the
    tuple and the option; the engine pops through {!min_key},
    {!min_value} and {!drop_min} instead, and [pop] and {!peek} remain
    for callers that want an option (the heap's tests). *)

val peek : 'a t -> (Time.t * int * 'a) option
(** The minimum without removing it, or [None] if empty. *)

val tied_front : 'a t -> (Time.t * int * 'a) list
(** Every element whose key equals the minimum key, in ascending
    insertion-sequence order (regardless of the heap's tie-breaker);
    [[]] if empty. O(n) — meant for schedule exploration over small
    queues, not for the hot pop path. *)

val remove_seq : 'a t -> seq:int -> (Time.t * int * 'a) option
(** Removes the element inserted with sequence number [seq], wherever
    it sits in the heap; [None] if no such element. O(n) search plus a
    sift. *)

val clear : 'a t -> unit
(** Discard every element. *)
