(** Terminal plots for the bench harness: CDF curves and x/y series
    rendered as ASCII, so `bench/main.exe` output can be eyeballed
    against the paper's figures directly. A plot area is 64 columns by
    16 rows. *)

val cdf : ?x_label:string -> (string * Cdf.t) list -> string
(** Overlay several CDFs (distinct glyphs per series, legend below).
    X spans the pooled sample range, Y is 0..1. *)

val xy :
  ?x_label:string -> ?y_label:string ->
  (string * (float * float) list) list -> string
(** Overlay several line series on shared axes. *)
