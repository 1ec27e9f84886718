(** Empirical cumulative distribution functions.

    The paper reports most results as CDFs (Fig. 4a–4d, 4i); this module
    turns raw samples into the plotted curves and into the textual
    series the bench harness prints. *)

type point = { x : float; p : float }

type t = private point list
(** Monotone in both coordinates; [p] ranges over (0, 1]. *)

val of_samples : float array -> t
(** Full empirical CDF: one point per distinct sample value. *)

val downsample : t -> int -> t
(** [downsample cdf k] keeps at most [k] evenly spaced points (always
    including the first and last) for compact printing. *)

val value_at : t -> float -> float
(** [value_at cdf p] is the smallest x with CDF(x) >= [p] — i.e. the
    p-quantile. *)

val fraction_below : t -> float -> float
(** [fraction_below cdf x] is CDF(x). *)

val points : t -> point list
