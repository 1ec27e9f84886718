type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }
let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let mask = Int64.of_int (bound - 1) in
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (bits64 t) mask)
  else
    let rec go () =
      let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 1) in
      let v = r mod bound in
      if r - v + (bound - 1) < 0 then go () else v
    in
    go ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let exponential t mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean must be positive";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let gaussian t ~mean ~stddev =
  (* Box–Muller; one sample per call keeps the stream position simple. *)
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal t ~mu ~sigma = exp (gaussian t ~mean:mu ~stddev:sigma)

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
