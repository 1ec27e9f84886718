(** Aligned textual tables for the bench harness's paper-style output. *)

type t

val create : header:string list -> t
val add_row : t -> string list -> unit
(** Rows may be ragged; missing cells render empty. *)

val row_count : t -> int
val pp : Format.formatter -> t -> unit
val print : t -> unit

val cell_pct : float -> string
(** Percentage formatting, e.g. [0.113 -> "11.3%"]. *)
