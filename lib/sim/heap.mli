(** Imperative binary min-heap, the core of the event queue.

    Ties are broken FIFO by an insertion sequence number supplied by
    the caller, which gives the arrival ordering of simultaneous events
    that a deterministic discrete-event simulation requires;
    {!tied_front}/{!remove_seq} let a scheduler inspect and resolve a
    timestamp tie one event at a time (the hook the schedule explorer
    builds on).

    Representation: the priorities live in unboxed [int] arrays and
    each payload sits at a stable slot of a separate array, so {!push},
    {!min_key}, {!min_value} and {!drop_min} allocate nothing (beyond
    amortised growth) and a sift never touches a payload. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** An empty heap ordered by [(key, seq)]. [dummy] fills every
    payload slot that holds no queued element: a slot is reset to it as
    soon as its element is removed, so the heap never keeps a popped
    payload reachable. [dummy] itself stays reachable for the heap's
    lifetime, so it should own nothing big. *)

val length : 'a t -> int
(** Number of queued elements. *)

val is_empty : 'a t -> bool
(** [length h = 0]. *)

val push : 'a t -> key:Time.t -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val min_key : 'a t -> Time.t
(** The minimum's key. Allocates nothing; raises [Invalid_argument] if
    empty. *)

val min_seq : 'a t -> int
(** The minimum's sequence number. Allocates nothing; raises
    [Invalid_argument] if empty. *)

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
    insertion-sequence order; [[]] if empty. O(n) — meant for schedule
    exploration over small queues, not for the hot pop path. *)

val remove_seq : 'a t -> seq:int -> (Time.t * int * 'a) option
(** Removes the element inserted with sequence number [seq], wherever
    it sits in the heap; [None] if no such element. O(n) search plus a
    sift. *)

val clear : 'a t -> unit
(** Discard every element. *)
