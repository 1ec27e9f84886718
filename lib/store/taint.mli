(** Identifies a trigger end-to-end.

    External triggers are tainted by JURY's replicator before they reach
    any controller; internal triggers are identified after the fact from
    their first cache event. A taint is minted once, as an immutable
    value that carries the hash of its printed form ["ext:P:S"] or
    ["int:O:S"]: tables, shard routing and footprints read that hash
    without printing, and the printed form is rendered only for
    reports, traces and digests. *)

type t

val external_trigger : primary:int -> serial:int -> t
(** Minted by the replicator: identifies the trigger and the primary
    controller that received it (§IV-A). *)

val internal_trigger : origin:int -> seq:int -> t
(** Synthesised for proactive actions, keyed by the first cache event's
    (origin, sequence). *)

val primary_of : t -> int option
(** The primary controller id for an external taint, [None] for
    internal. *)

val is_external : t -> bool

val node : t -> int
(** The primary of an external taint, the origin of an internal one:
    the [P] or [O] of the printed form. *)

val serial : t -> int
(** The [S] of the printed form: the replicator's serial, or the first
    cache event's sequence number. *)

val hash : t -> int
(** [Hashtbl.hash (to_string t)], computed once when [t] was minted, so
    a table, shard or footprint keyed on it lays out exactly as one
    keyed on the printed string. *)

val printed_length : t -> int
(** [String.length (to_string t)], without printing. *)

val to_string : t -> string
(** ["ext:P:S"] or ["int:O:S"], the fields in [%d] decimal. *)

val of_string : string -> t option
(** The taint [to_string] prints as exactly this string, if any. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** The order of the printed forms. *)

val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
(** Taint-keyed tables. They hash with {!hash}, so their buckets and
    fold order match a [Hashtbl] keyed on the printed strings. *)
