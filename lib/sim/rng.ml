(* The splitmix64 state lives unboxed in 8 bytes, read and written
   with the unchecked 64-bit primitives: a [mutable state : int64]
   field would box a new Int64 on every draw. *)
type t = Bytes.t

external get_state : t -> int -> int64 = "%caml_bytes_get64u"
external set_state : t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix64 state

let split t = of_state (bits64 t)
let copy t = Bytes.copy t

(* Rejection sampling to avoid modulo bias; top-level, so a draw builds
   no closure. *)
let rec int_rejecting t bound =
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 1) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then int_rejecting t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (bits64 t) (Int64.of_int (bound - 1)))
  else int_rejecting t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L
let[@inline] bernoulli t p = float t 1.0 < p

let[@inline] exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let[@inline] gaussian t ~mean ~stddev =
  (* Box–Muller; one sample per call keeps the stream position simple. *)
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let[@inline] lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

let pareto t ~xm ~alpha =
  if xm <= 0. || alpha <= 0. then invalid_arg "Rng.pareto: bad parameters";
  let u = 1.0 -. float t 1.0 in
  xm /. (u ** (1.0 /. alpha))

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k xs =
  if List.compare_length_with xs k <= 0 then xs
  else begin
    let arr = Array.of_list xs in
    shuffle t arr;
    Array.to_list (Array.sub arr 0 k)
  end
