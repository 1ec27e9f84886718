type point = { x : float; p : float }
type t = point list

let of_samples xs =
  let n = Array.length xs in
  if n = 0 then []
  else begin
    let sorted = Array.copy xs in
    Array.sort compare sorted;
    (* Collapse runs of equal values into a single point carrying the
       cumulative probability at the run's end. *)
    let rec build i acc =
      if i >= n then List.rev acc
      else begin
        let v = sorted.(i) in
        let j = ref i in
        while !j < n && sorted.(!j) = v do incr j done;
        let p = float_of_int !j /. float_of_int n in
        build !j ({ x = v; p } :: acc)
      end
    in
    build 0 []
  end

let points t = t

let downsample t k =
  let arr = Array.of_list t in
  let n = Array.length arr in
  if k <= 0 then invalid_arg "Cdf.downsample: k must be positive";
  if n <= k then t
  else if k = 1 then [ arr.(n - 1) ] (* the p = 1 point *)
  else begin
    let out = ref [] in
    for i = k - 1 downto 0 do
      let idx = i * (n - 1) / (k - 1) in
      out := arr.(idx) :: !out
    done;
    !out
  end

let value_at t p =
  let rec go = function
    | [] -> invalid_arg "Cdf.value_at: empty CDF"
    | [ last ] -> last.x
    | pt :: rest -> if pt.p >= p then pt.x else go rest
  in
  go t

let fraction_below t x =
  let rec go acc = function
    | [] -> acc
    | pt :: rest -> if pt.x <= x then go pt.p rest else acc
  in
  go 0. t
