(** Deterministic behaviour features of a finished run — the guided
    fuzzer's notion of "did this mutant do something new?".

    A feature is a short string naming one observed behaviour:

    - [verdict:<class>] and [verdict:<class>:b<n>] — a verdict class
      appeared, and its count's power-of-two bucket;
    - [ctr:<name>:b<n>] — an oracle-relevant counter (retransmits,
      stragglers, overload retirements, channel drops, …) moved, with
      its magnitude bucket;
    - [phase:<name>] — a {!Jury_obs.Trace} span phase the run visited
      (only when a trace was attached to the execution);
    - [fault:<kind>] and [fault2:<a>><b>] — which fault levers the
      case ran, and their adjacent interleaving order.

    Extraction is a pure function of the case and the outcome (plus
    the optional trace), so equal runs yield equal feature sets — the
    fuzz determinism suite depends on exactly that. Buckets are
    power-of-two so the feature space stays finite and corpus growth
    converges. *)

type t

val empty : t
val of_run : ?trace:Jury_obs.Trace.t -> Case.t -> Run.outcome -> t
val features : t -> string list
(** Sorted. *)

val cardinal : t -> int
val union : t -> t -> t

val diff : t -> t -> t
(** [diff a b]: features in [a] not in [b] — the novelty test. *)

val is_empty : t -> bool
val equal : t -> t -> bool
val mem : string -> t -> bool
