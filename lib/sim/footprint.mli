(** Conservative static footprints for scheduled events.

    A footprint names the mutable resources an event's callback may
    touch. The schedule explorer uses footprints as a {e static
    dependence relation}: two equal-timestamp events whose footprints
    are {!independent} commute — executing them in either order leads
    to the same observable outcome — so only one of the two orders
    needs exploring. The relation must be conservative: when in doubt
    an event is {!opaque}, which conflicts with everything (including
    other opaque events), and exploration stays exhaustive, just
    slower.

    Resources are small integers namespaced by kind. The named
    constructors below cover the simulation's components; they are
    nothing but disjoint integer ranges, so the module stays free of
    any dependency on the component libraries. An event that touches a
    component's private RNG must include that component in its
    footprint (drawing reorders the stream — a write like any
    other). *)

type t [@@immediate]
(** One int, so storing or passing a footprint allocates nothing.
    Opaque is a reserved value; a set of up to two ids, or of three
    ids whose indices are below [2^17], is held exactly. Any other set
    is held as a summary of the namespaces it touches (see
    {!independent}). *)

val opaque : t
(** Unknown effects: dependent on every event, itself included. The
    default for every scheduled event that does not declare better. *)

val one : int -> t
(** [one a] is [touches [a]], built without a list. *)

val two : int -> int -> t
(** [two a b] is [touches [a; b]], built without a list. *)

val touches : int list -> t
(** An event confined to the given resources. [touches []] commutes
    with every non-opaque event. *)

val is_opaque : t -> bool

val independent : t -> t -> bool
(** Both footprints are declared and share no resource. This is the
    commutation test: [independent a b] implies executing the two
    events in either order yields the same observable behaviour
    (assuming footprints were declared honestly).

    Between exact sets the answer is exact. A summary answers by
    namespace: it is independent only of a footprint that touches
    none of its namespaces, so it may call two commuting events
    dependent (exploring more orders) but never the reverse. *)

val union : t -> t -> t
(** Combined footprint (opaque absorbs). *)

(** {1 Resource namespaces}

    Each constructor maps a small id into its own integer range;
    distinct namespaces never collide. *)

val switch : int -> int
(** The flow table, ports and timers of switch [dpid]. *)

val host : int -> int
(** A host endpoint's protocol state. *)

val controller : int -> int
(** One controller replica: its caches' local views, pipeline and
    private RNG. *)

val store : int -> int
(** The replicated-store shard/fabric state owned by node [i]. *)

val trigger : int -> int
(** The per-trigger validation entry for the trigger whose taint hashes
    to [i] ([Taint.hash]): its response set, timer and verdict slot.
    Every layer that schedules work for a trigger (replicator,
    validator, channels) names it this way, so the responses and timers
    of one trigger conflict. *)

val named : string -> int
(** A resource identified by name (e.g. a cache), hashed into its own
    namespace. Collisions only ever merge resources, which is
    conservative. *)

val pp : Format.formatter -> t -> unit
(** [{sw:1,ctl:0}] for an exact set (ids ascending), [opaque], or
    [{sw:*,trig:*}] for a summary ([*] alone: an id outside every
    namespace). *)
