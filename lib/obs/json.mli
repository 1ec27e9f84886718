(** The one JSON value type, reader and string escaper of the
    repository (no JSON library in the image).

    The trace export ({!Export}) and the bench regression gate both read
    and write through this module. Numbers without a fraction or an
    exponent that fit an OCaml [int] read as [Int], so nanosecond
    timestamps round-trip exactly; every other number reads as
    [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed). [Error]
    names the first problem and its byte offset, e.g.
    [expected ':' at byte 7]. Unicode escapes decode to UTF-8;
    unpaired surrogates are rejected. *)

val to_string : t -> string
(** Compact rendering: no whitespace, members in list order, strings
    escaped with {!escape}. A non-finite [Float] renders as [null]. *)

val escape : string -> string
(** [escape s] is the body of a JSON string literal for [s], without
    the surrounding quotes. The double quote, backslash, newline,
    carriage return and tab get their two-character escapes, other
    control characters a six-character [u00XX] escape, and every other
    byte passes through. *)

val member : string -> t -> t option
(** [member key v] is the first member named [key] when [v] is an
    [Obj]; [None] otherwise. *)

val to_float : t -> float option
(** The value of an [Int] or a [Float]. *)
