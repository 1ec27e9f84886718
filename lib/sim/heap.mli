(** Imperative binary min-heap, the core of the event queue.

    Ties are broken FIFO by an insertion sequence number supplied by
    the caller, which gives the arrival ordering of simultaneous events
    that a deterministic discrete-event simulation requires;
    {!tied_front}/{!remove_seq} let a scheduler inspect and resolve a
    timestamp tie one event at a time (the hook the schedule explorer
    builds on).

    Representation: the priorities and the payloads live in three
    unboxed [int] arrays, so {!push}, {!min_key}, {!min_value} and
    {!drop_min} allocate nothing (beyond amortised growth), a sift
    needs no write barrier, and the heap holds no pointer. The engine
    queues the slot of its event pool as the payload. *)

type t

val create : unit -> t
(** An empty heap ordered by [(key, seq)]. *)

val length : t -> int
(** Number of queued elements. *)

val is_empty : t -> bool
(** [length h = 0]. *)

val push : t -> key:Time.t -> seq:int -> int -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val min_key : t -> Time.t
(** The minimum's key. Allocates nothing; raises [Invalid_argument] if
    empty. *)

val min_seq : t -> int
(** The minimum's sequence number. Allocates nothing; raises
    [Invalid_argument] if empty. *)

val min_value : t -> int
(** The minimum's payload. Allocates nothing; raises
    [Invalid_argument] if empty. *)

val drop_min : t -> unit
(** Removes the minimum. Allocates nothing; raises [Invalid_argument]
    if empty. Together with {!min_key}, {!min_seq} and {!min_value}
    this is the event loop's pop. *)

val pop : t -> (Time.t * int * int) option
(** Removes and returns the minimum, or [None] if empty. Allocates the
    tuple and the option; the engine pops through {!min_key},
    {!min_value} and {!drop_min} instead, and [pop] and {!peek} remain
    for callers that want an option (the heap's tests). *)

val peek : t -> (Time.t * int * int) option
(** The minimum without removing it, or [None] if empty. *)

val tied_front : t -> (Time.t * int * int) list
(** Every element whose key equals the minimum key, in ascending
    insertion-sequence order; [[]] if empty. O(n) — meant for schedule
    exploration over small queues, not for the hot pop path. *)

val remove_seq : t -> seq:int -> (Time.t * int * int) option
(** Removes the element inserted with sequence number [seq], wherever
    it sits in the heap; [None] if no such element. O(n) search plus a
    sift. *)
