(* Struct-of-arrays binary heap of int payloads. Heap position
   [i < size] holds the priority [(keys.(i), seqs.(i))] and the payload
   [vals.(i)]; all three are ints, so sifting moves integers only, with
   no allocation and no write barrier, and the heap holds no pointer
   that could keep a removed payload alive. *)
type t = {
  mutable keys : Time.t array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

(* Whether priority [(k, s)] pops strictly before [(k', s')]: by key,
   then first inserted first. *)
let[@inline] before (k : Time.t) s (k' : Time.t) s' =
  (k :> int) < (k' :> int) || (k = k' && s < s')

let grow h =
  let cap = Array.length h.keys in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let keys = Array.make ncap Time.zero in
  let seqs = Array.make ncap 0 in
  let vals = Array.make ncap 0 in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.vals <- vals

(* Moves a hole at [i] towards the root until [(k, s)] fits, then
   writes [(k, s, v)] there. *)
let sift_up h i k s v =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let i = ref i in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    before k s keys.(p) seqs.(p)
  do
    let p = (!i - 1) / 2 in
    keys.(!i) <- keys.(p);
    seqs.(!i) <- seqs.(p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  keys.(!i) <- k;
  seqs.(!i) <- s;
  vals.(!i) <- v

(* Moves a hole at [i] down the path of smaller children to a leaf of
   [0 .. size - 1] and returns the leaf's position. One comparison per
   level: the element that will refill the hole is usually bottom-most,
   so finding its place on the way back up ({!sift_up}) is cheaper than
   comparing against it on the way down. *)
let hole_down h i =
  let keys = h.keys and seqs = h.seqs and vals = h.vals in
  let n = h.size in
  let i = ref i in
  while (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c =
      if r < n && before keys.(r) seqs.(r) keys.(l) seqs.(l) then r else l
    in
    keys.(!i) <- keys.(c);
    seqs.(!i) <- seqs.(c);
    vals.(!i) <- vals.(c);
    i := c
  done;
  !i

let push h ~key ~seq v =
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i key seq v

(* Removes heap position [i]: moves its hole to a leaf and refills it
   with the last element, sifted up from there (it may end above [i]). *)
let remove_at h i =
  let n = h.size - 1 in
  h.size <- n;
  if i < n then begin
    let k = h.keys.(n) and s = h.seqs.(n) and last = h.vals.(n) in
    sift_up h (hole_down h i) k s last
  end

let check_nonempty h fn = if h.size = 0 then invalid_arg fn

let min_key h =
  check_nonempty h "Heap.min_key";
  h.keys.(0)

let min_seq h =
  check_nonempty h "Heap.min_seq";
  h.seqs.(0)

let min_value h =
  check_nonempty h "Heap.min_value";
  h.vals.(0)

let drop_min h =
  check_nonempty h "Heap.drop_min";
  remove_at h 0

let entry h i = (h.keys.(i), h.seqs.(i), h.vals.(i))

let peek h = if h.size = 0 then None else Some (entry h 0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = entry h 0 in
    remove_at h 0;
    Some top
  end

let tied_front h =
  if h.size = 0 then []
  else begin
    let min_key = h.keys.(0) in
    let tied = ref [] in
    for i = h.size - 1 downto 0 do
      if h.keys.(i) = min_key then tied := entry h i :: !tied
    done;
    List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) !tied
  end

let remove_seq h ~seq =
  let rec find i =
    if i >= h.size then None
    else if h.seqs.(i) = seq then begin
      let e = entry h i in
      remove_at h i;
      Some e
    end
    else find (i + 1)
  in
  find 0
