(** Deterministic pseudo-random number generation.

    A splitmix64 generator: tiny state, excellent statistical quality
    for simulation purposes, and — crucially — fully deterministic from
    the seed, so every experiment in this repository is reproducible
    bit-for-bit. Each simulated component takes its own [t] (usually
    [split] from a parent) so that adding a component does not perturb
    the random stream of the others.

    A draw allocates nothing. The simulator samples several delays per
    execution of every trigger, so the 64-bit state is kept unboxed in
    a byte buffer rather than in an [int64] field, which would box a
    new Int64 on every draw. The float draws are inlined, so a caller
    compiled with cross-module inlining gets its sample unboxed. The
    streams are the same as with the boxed state, output for output. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t]. *)

val copy : t -> t
(** An independent generator with the same state — the copy and the
    original produce the same stream from here on. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** A fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean;
    used for Poisson inter-arrival times. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Log-normal sample — models heavy-ish tails of controller service
    times. *)

val pareto : t -> xm:float -> alpha:float -> float
(** Bounded-below Pareto sample — models flow-size distributions. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal sample (Box–Muller) — models symmetric jitter. *)

val choice : t -> 'a array -> 'a
(** Uniform pick from a non-empty array. *)

val sample_without_replacement : t -> int -> 'a list -> 'a list
(** [sample_without_replacement t k xs] picks [k] distinct elements of
    [xs] uniformly (all of [xs] if [k >= length xs]). Order of the
    result is unspecified. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
