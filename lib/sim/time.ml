type t = int

let zero = 0
let ns x = if x < 0 then invalid_arg "Time.ns: negative" else x
let us x = ns (x * 1_000)
let ms x = ns (x * 1_000_000)
let sec x = ns (x * 1_000_000_000)

let[@inline] of_float_sec s =
  if s < 0. then invalid_arg "Time.of_float_sec: negative"
  else int_of_float (Float.round (s *. 1e9))

let[@inline] of_float_ms m = of_float_sec (m /. 1e3)
let[@inline] of_float_us u = of_float_sec (u /. 1e6)
let to_ns t = t
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6
let to_float_sec t = float_of_int t /. 1e9
let add a b = a + b

let sub a b =
  if b > a then invalid_arg "Time.sub: negative result" else a - b

let diff a b = abs (a - b)
let mul t k = if k < 0 then invalid_arg "Time.mul: negative" else t * k
let div t k = if k <= 0 then invalid_arg "Time.div: non-positive" else t / k
let compare = Int.compare
let equal = Int.equal
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let min (a : t) b = Stdlib.min a b
let max (a : t) b = Stdlib.max a b

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.1fus" (to_float_us t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.1fms" (to_float_ms t)
  else Format.fprintf fmt "%.3fs" (to_float_sec t)

let to_string t = Format.asprintf "%a" pp t
