(* Struct-of-arrays binary heap. Heap position [i < size] holds the
   priority [(keys.(i), seqs.(i))] and the payload slot [slots.(i)];
   the payload itself sits at [vals.(slots.(i))] and never moves while
   queued. Sifting therefore rewrites integers only, with no
   allocation and no write barrier; a push or a removal stores one
   payload pointer.

   [slots] is always a permutation of [0 .. capacity - 1]: positions
   [>= size] form the stack of free slots, so a push takes
   [slots.(size)] and a removal writes its freed slot back at the new
   [size]. A freed slot is reset to [dummy], so a popped payload is
   never pinned by the heap. *)
type 'a t = {
  mutable keys : Time.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable size : int;
  dummy : 'a;
}

let create ~dummy () =
  { keys = [||]; seqs = [||]; slots = [||]; vals = [||]; size = 0; dummy }

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
  let slots = Array.init ncap Fun.id in
  let vals = Array.make ncap h.dummy in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.slots 0 slots 0 cap;
  Array.blit h.vals 0 vals 0 cap;
  h.keys <- keys;
  h.seqs <- seqs;
  h.slots <- slots;
  h.vals <- vals

(* Moves a hole at [i] towards the root until [(k, s)] fits, then
   writes [(k, s, slot)] there. *)
let sift_up h i k s slot =
  let keys = h.keys and seqs = h.seqs and slots = h.slots in
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
    slots.(!i) <- slots.(p);
    i := p
  done;
  keys.(!i) <- k;
  seqs.(!i) <- s;
  slots.(!i) <- slot

(* Moves a hole at [i] down the path of smaller children to a leaf of
   [0 .. size - 1] and returns the leaf's position. One comparison per
   level: the element that will refill the hole is usually bottom-most,
   so finding its place on the way back up ({!sift_up}) is cheaper than
   comparing against it on the way down. *)
let hole_down h i =
  let keys = h.keys and seqs = h.seqs and slots = h.slots in
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
    slots.(!i) <- slots.(c);
    i := c
  done;
  !i

let push h ~key ~seq value =
  if h.size = Array.length h.keys then grow h;
  let i = h.size in
  let slot = h.slots.(i) in
  h.vals.(slot) <- value;
  h.size <- i + 1;
  sift_up h i key seq slot

(* Removes heap position [i]: moves its hole to a leaf and refills it
   with the last element, sifted up from there (it may end above [i]),
   then returns the freed slot to the free stack. *)
let remove_at h i =
  let slot = h.slots.(i) in
  let n = h.size - 1 in
  h.size <- n;
  if i < n then begin
    let k = h.keys.(n) and s = h.seqs.(n) and last = h.slots.(n) in
    sift_up h (hole_down h i) k s last
  end;
  h.slots.(n) <- slot;
  h.vals.(slot) <- h.dummy

let check_nonempty h fn = if h.size = 0 then invalid_arg fn

let min_key h =
  check_nonempty h "Heap.min_key";
  h.keys.(0)

let min_seq h =
  check_nonempty h "Heap.min_seq";
  h.seqs.(0)

let min_value h =
  check_nonempty h "Heap.min_value";
  h.vals.(h.slots.(0))

let drop_min h =
  check_nonempty h "Heap.drop_min";
  remove_at h 0

let entry h i = (h.keys.(i), h.seqs.(i), h.vals.(h.slots.(i)))

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

let clear h =
  h.keys <- [||];
  h.seqs <- [||];
  h.slots <- [||];
  h.vals <- [||];
  h.size <- 0
