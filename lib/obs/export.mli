(** JSONL export and in-process queries over trace events.

    One JSON object per line, e.g.:
    {v
    {"t":1200,"span":3,"parent":1,"node":4,"kind":"open",
     "phase":"replicate","attrs":{"taint":"ext:0:17"}}
    v}
    Each line is written and read through {!Json}, and the codec
    round-trips exactly: [of_jsonl (to_jsonl evs) = Ok evs]. *)

val event_to_json : Trace.event -> string
(** Single-line JSON object (no trailing newline). *)

val event_of_json : string -> (Trace.event, string) result
(** [Error] names the malformed byte or the missing or mistyped
    field. *)

val to_jsonl : Trace.event list -> string
(** One event per line, newline-terminated. *)

val of_jsonl : string -> (Trace.event list, string) result
(** Blank lines are skipped; the first malformed line aborts with its
    line number. *)

val write_file : string -> Trace.event list -> unit

val read_file : string -> (Trace.event list, string) result

val query :
  ?taint:string ->
  ?node:int ->
  ?phase:Trace.phase ->
  ?kind:[ `Open | `Close | `Point ] ->
  ?since_ns:int ->
  ?until_ns:int ->
  Trace.event list ->
  Trace.event list
(** Conjunction of the given filters, preserving order. [phase]
    matches [Open]/[Point] events of that phase; [taint] matches the
    stamped ["taint"] attribute; the time window is inclusive. *)
