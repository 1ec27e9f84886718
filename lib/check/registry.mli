(** The oracle catalog.

    Every consumer of the battery — [jury_cli check], [jury_cli mc],
    the guided fuzzer, the shrinker, the pinned repro corpus — resolves
    selectors and enumerates oracles through this one list. Adding an
    oracle means writing its check in {!Oracle} and listing it here;
    the CLI selector, the unknown-name error listing and the default
    battery all pick it up from the one entry. *)

val all : unit -> Oracle.t list
(** Every oracle, in battery order. *)

val families : unit -> string list
(** The distinct family names, sorted. *)

val by_family : string -> Oracle.t list
(** Oracles of one family; [\[\]] for an unknown name. *)

val names : unit -> string list
(** Every oracle name, in catalog order. *)

val find : string -> Oracle.t option
(** Look one oracle up by exact name. *)

val resolve : string -> (Oracle.t list, string) result
(** Resolve a user-supplied selector — a family or a single oracle
    name — to its oracles. [Error] carries a message listing every
    valid family and name; the CLI's [check --oracle], [mc --oracle]
    and [check --fuzz] share this table. *)

val check_run : ?oracles:Oracle.t list -> Oracle.ctx -> (Oracle.t * string) list
(** {!Oracle.check_run} defaulting to the full battery. *)

val check_case : ?oracles:Oracle.t list -> Case.t -> (Oracle.t * string) list
(** [check_run ?oracles (Oracle.ctx case)]. *)
