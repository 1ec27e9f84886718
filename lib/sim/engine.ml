(* Events live in a slot pool shared by the heap and the lanes: slot [s]
   holds the event's closure [actions.(s)], its footprint [fps.(s)] and
   [owners.(s)], the seq of the live event in it (0 once it fired or was
   cancelled). A queue entry is [(time, seq, slot)], all ints, so a
   scheduled event costs its closure and nothing else. A slot returns
   to the free stack only when its entry drains, so a queued entry is
   live iff its slot's owner is not 0. Cancelling clears the owner and
   swaps the closure for [noop]: the entry stays queued until its
   timestamp (so event counts and the clock are unchanged) but retains
   nothing, and draining it runs [noop]. Only the chooser reads [fps],
   and it never sees a cancelled event. *)

let noop () = ()

type candidate = {
  cand_seq : int;
  cand_at : Time.t;
  cand_footprint : Footprint.t;
}

type chooser = candidate array -> int

(* A fixed-delay lane: the events scheduled [delay] ahead through
   [schedule_fixed], in a ring buffer. Each one lands at [now + delay]
   with a seq larger than any queued, and the clock and the seq only
   grow, so it sorts after every event already on the lane: the ring is
   in [(time, seq)] order by construction, a push appends and a pop
   takes the head, with no sifting. The capacity is a power of two;
   [head] is the oldest entry's position. *)
type lane = {
  delay : Time.t;
  mutable keys : Time.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable head : int;
  mutable len : int;
}

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  queue : Heap.t;
  mutable lanes : lane array;
  mutable busy : int;  (* bit [i] set iff lane [i] is non-empty *)
  mutable actions : (unit -> unit) array;
  mutable fps : Footprint.t array;
  mutable owners : int array;
  mutable free : int array;  (* a stack of the free slots *)
  mutable nfree : int;
  root_rng : Rng.t;
  mutable trace : Jury_obs.Trace.t;
  mutable executed : int;
  mutable chooser : chooser option;
}

(* A handle names a slot and the seq that owned it: [seq] above the
   slot's [slot_bits] bits. Once the event fires or is cancelled the
   owner moves on, so an old handle matches nothing, even after its
   slot holds another event. *)
type handle = int

let slot_bits = 24
let[@inline] handle_of s seq = (seq lsl slot_bits) lor s
let no_handle = handle_of 0 0

(* Process-wide executed-event tally across every engine (and every
   domain — experiment sweeps run one engine per pool task). Updated in
   one batch per [run] call, not per event, so the shared cache line is
   touched a handful of times per simulation instead of millions. *)
let global_executed = Atomic.make 0
let total_executed () = Atomic.get global_executed

let create ?(seed = 42) () =
  { clock = Time.zero;
    seq = 0;
    queue = Heap.create ();
    lanes = [||];
    busy = 0;
    actions = [||];
    fps = [||];
    owners = [||];
    free = [||];
    nfree = 0;
    root_rng = Rng.create seed;
    trace = Jury_obs.Trace.null ();
    executed = 0;
    chooser = None }

let now t = t.clock
let now_ns t = Time.to_ns t.clock
let rng t = t.root_rng
let trace t = t.trace
let set_trace t trace = t.trace <- trace
let set_chooser t chooser = t.chooser <- chooser

(* --- The slot pool --- *)

(* Doubles the pool; the new slots go on the free stack, lowest on
   top. *)
let grow_pool t =
  let cap = Array.length t.owners in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let actions = Array.make ncap noop in
  let fps = Array.make ncap Footprint.opaque in
  let owners = Array.make ncap 0 in
  Array.blit t.actions 0 actions 0 cap;
  Array.blit t.fps 0 fps 0 cap;
  Array.blit t.owners 0 owners 0 cap;
  t.actions <- actions;
  t.fps <- fps;
  t.owners <- owners;
  t.free <- Array.init ncap (fun i -> ncap - 1 - i);
  t.nfree <- ncap - cap

let take_slot t f fp seq =
  if t.nfree = 0 then grow_pool t;
  let s = t.free.(t.nfree - 1) in
  t.nfree <- t.nfree - 1;
  t.actions.(s) <- f;
  t.fps.(s) <- fp;
  t.owners.(s) <- seq;
  s

let release t s =
  t.actions.(s) <- noop;
  t.owners.(s) <- 0;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* Frees the slot of the entry that just left its queue, then runs its
   closure ([noop] if the event was cancelled). *)
let fire t s =
  let f = t.actions.(s) in
  release t s;
  t.executed <- t.executed + 1;
  f ()

(* --- Pushing --- *)

let push_heap t fp at f =
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule_at: time is in the past";
  let seq = t.seq + 1 in
  t.seq <- seq;
  let s = take_slot t f fp seq in
  Heap.push t.queue ~key:at ~seq s;
  s

(* Distinct delays that get a lane; a delay first seen once the table
   is full goes to the heap. *)
let max_lanes = 8

let lane_create delay =
  { delay; keys = Array.make 16 Time.zero; seqs = Array.make 16 0;
    slots = Array.make 16 0; head = 0; len = 0 }

let[@inline] lane_pos l i = (l.head + i) land (Array.length l.keys - 1)

(* Doubles the ring, unrolling it so the head lands at 0. *)
let lane_grow l =
  let cap = Array.length l.keys in
  let keys = Array.make (2 * cap) Time.zero in
  let seqs = Array.make (2 * cap) 0 in
  let slots = Array.make (2 * cap) 0 in
  for i = 0 to l.len - 1 do
    let j = lane_pos l i in
    keys.(i) <- l.keys.(j);
    seqs.(i) <- l.seqs.(j);
    slots.(i) <- l.slots.(j)
  done;
  l.keys <- keys;
  l.seqs <- seqs;
  l.slots <- slots;
  l.head <- 0

let lane_drop_head t i =
  let l = t.lanes.(i) in
  l.head <- lane_pos l 1;
  l.len <- l.len - 1;
  if l.len = 0 then t.busy <- t.busy land lnot (1 lsl i)

(* The index of [after]'s lane, made on first use while the table has
   room; [-1] sends the event to the heap. A top-level loop, so a call
   builds no closure. *)
let rec lane_index t after i =
  let lanes = t.lanes in
  if i = Array.length lanes then
    if i < max_lanes then begin
      t.lanes <- Array.append lanes [| lane_create after |];
      i
    end
    else -1
  else if Time.equal lanes.(i).delay after then i
  else lane_index t after (i + 1)

let push_fixed t fp after f =
  let i = lane_index t after 0 in
  if i < 0 then push_heap t fp (Time.add t.clock after) f
  else begin
    let l = t.lanes.(i) in
    if l.len = Array.length l.keys then lane_grow l;
    let seq = t.seq + 1 in
    t.seq <- seq;
    let s = take_slot t f fp seq in
    let j = lane_pos l l.len in
    l.keys.(j) <- Time.add t.clock after;
    l.seqs.(j) <- seq;
    l.slots.(j) <- s;
    l.len <- l.len + 1;
    t.busy <- t.busy lor (1 lsl i);
    s
  end

let schedule_on_at t fp ~at f = ignore (push_heap t fp at f)

let schedule_on t fp ~after f =
  schedule_on_at t fp ~at:(Time.add t.clock after) f

let schedule t ~after f = schedule_on t Footprint.opaque ~after f
let schedule_at t ~at f = schedule_on_at t Footprint.opaque ~at f
let schedule_fixed t ~after f = ignore (push_fixed t Footprint.opaque after f)

let handle_at t s =
  if s lsr slot_bits <> 0 then
    invalid_arg "Engine.timer: too many events pending for a handle";
  handle_of s t.owners.(s)

let timer t fp ~fixed ~after f =
  handle_at t
    (if fixed then push_fixed t fp after f
     else push_heap t fp (Time.add t.clock after) f)

(* --- Handles --- *)

let[@inline] handle_slot h = h land ((1 lsl slot_bits) - 1)

let is_pending t h =
  let s = handle_slot h in
  s < Array.length t.owners
  &&
  let owner = t.owners.(s) in
  owner <> 0 && handle_of s owner = h

let cancel t h =
  if is_pending t h then begin
    let s = handle_slot h in
    t.owners.(s) <- 0;
    t.actions.(s) <- noop
  end

let every t ~period ?jitter ?(footprint = Footprint.opaque) f =
  (* A recurrence is a chain of one-shot events; the caller's handle
     names a slot that holds [f] but is never queued (its owner is the
     seq of the chain's first link, which waits in another slot), so
     cancelling the handle stops the chain and drops [f] at once. Each
     link runs that slot's closure; the link that finds the chain
     cancelled frees the slot. *)
  let stamp = t.seq + 1 in
  let chain = take_slot t f Footprint.opaque stamp in
  let rec link () =
    if t.owners.(chain) = stamp then begin
      t.actions.(chain) ();
      if t.owners.(chain) = stamp then arm ()
      else release t chain
    end
    else release t chain
  and arm () =
    let delay =
      match jitter with
      | None -> period
      | Some j ->
          if Time.to_ns j = 0 then period
          else Time.add period (Time.ns (Rng.int t.root_rng (Time.to_ns j)))
    in
    schedule_on t footprint ~after:delay link
  in
  arm ();
  handle_at t chain

(* --- Popping --- *)

(* Whether priority [(k, s)] pops strictly before [(k', s')]. *)
let[@inline] before (k : Time.t) s (k' : Time.t) s' =
  (k :> int) < (k' :> int) || (k = k' && s < s')

(* The queue holding the next event: [from_heap], a lane's index, or
   [nothing] when every queue is empty. Visits only the lanes whose
   [busy] bit is set. Allocates nothing. *)
let from_heap = -1
let nothing = -2

let next_source t =
  let best = ref nothing and bk = ref Time.zero and bs = ref 0 in
  if not (Heap.is_empty t.queue) then begin
    best := from_heap;
    bk := Heap.min_key t.queue;
    bs := Heap.min_seq t.queue
  end;
  let busy = ref t.busy and i = ref 0 in
  while !busy <> 0 do
    if !busy land 1 <> 0 then begin
      let l = t.lanes.(!i) in
      let k = l.keys.(l.head) and s = l.seqs.(l.head) in
      if !best = nothing || before k s !bk !bs then begin
        best := !i;
        bk := k;
        bs := s
      end
    end;
    busy := !busy lsr 1;
    incr i
  done;
  !best

let source_key t src =
  if src = from_heap then Heap.min_key t.queue
  else
    let l = t.lanes.(src) in
    l.keys.(l.head)

(* Every queued entry at the minimum timestamp, from the heap and the
   lanes, as [(time, seq, slot)] in ascending seq order; [[]] if
   nothing is queued. A lane's tied entries are a prefix of it. *)
let tied_front t =
  let src = next_source t in
  if src = nothing then []
  else begin
    let at = source_key t src in
    let q = t.queue in
    let tied =
      if (not (Heap.is_empty q)) && Time.equal (Heap.min_key q) at then
        Heap.tied_front q
      else []
    in
    let on_lanes =
      Array.fold_left
        (fun acc l ->
          let rec take i acc =
            if i < l.len && Time.equal l.keys.(lane_pos l i) at then
              let j = lane_pos l i in
              take (i + 1) ((at, l.seqs.(j), l.slots.(j)) :: acc)
            else acc
          in
          take 0 acc)
        [] t.lanes
    in
    match on_lanes with
    | [] -> tied
    | _ ->
        List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b) (tied @ on_lanes)
  end

(* Removes the entry of lane [li] [i] places behind the head: the
   entries ahead of it move back one place, so the lane stays in
   order. *)
let lane_remove t li i =
  let l = t.lanes.(li) in
  for n = i downto 1 do
    let dst = lane_pos l n and src = lane_pos l (n - 1) in
    l.keys.(dst) <- l.keys.(src);
    l.seqs.(dst) <- l.seqs.(src);
    l.slots.(dst) <- l.slots.(src)
  done;
  lane_drop_head t li

(* Removes the entry queued with [seq], wherever it waits. *)
let remove_seq t ~seq =
  match Heap.remove_seq t.queue ~seq with
  | Some _ -> ()
  | None ->
      let rec in_lane li =
        if li = Array.length t.lanes then invalid_arg "Engine: no such event";
        let l = t.lanes.(li) in
        let rec find i =
          if i = l.len then in_lane (li + 1)
          else if l.seqs.(lane_pos l i) = seq then lane_remove t li i
          else find (i + 1)
        in
        find 0
      in
      in_lane 0

(* One removal per call, mirroring the plain path's accounting (clock
   advance, executed tick) exactly. Cancelled events drain before the
   chooser is consulted — they are no-ops, so their order within a tie
   is unobservable — and the chooser only ever sees a tie of two or
   more live events. *)
let step_choose t choose =
  match tied_front t with
  | [] -> false
  | tied ->
      let dead =
        List.find_opt (fun (_, _, s) -> t.owners.(s) = 0) tied
      in
      let at, seq, s =
        match dead with
        | Some e -> e
        | None -> (
            match tied with
            | [ e ] -> e
            | _ ->
                let tied = Array.of_list tied in
                let cands =
                  Array.map
                    (fun (at, seq, s) ->
                      { cand_seq = seq; cand_at = at;
                        cand_footprint = t.fps.(s) })
                    tied
                in
                let i = choose cands in
                if i < 0 || i >= Array.length cands then
                  invalid_arg "Engine: chooser index out of range";
                tied.(i))
      in
      remove_seq t ~seq;
      t.clock <- at;
      fire t s;
      true

(* Pops and runs the head of [src], which [next_source] chose. *)
let step_from t src =
  if src = from_heap then begin
    let q = t.queue in
    let s = Heap.min_value q in
    t.clock <- Heap.min_key q;
    Heap.drop_min q;
    fire t s
  end
  else begin
    let l = t.lanes.(src) in
    let s = l.slots.(l.head) in
    t.clock <- l.keys.(l.head);
    lane_drop_head t src;
    fire t s
  end

let step t =
  match t.chooser with
  | Some choose -> step_choose t choose
  | None ->
      let src = next_source t in
      src <> nothing
      && begin
        step_from t src;
        true
      end

let run ?until t =
  let before = t.executed in
  let rec loop () =
    let src = next_source t in
    if src <> nothing then
      match until with
      | Some horizon when Time.(source_key t src > horizon) ->
          t.clock <- horizon
      | _ ->
          (match t.chooser with
          | None -> step_from t src
          | Some choose -> ignore (step_choose t choose));
          loop ()
  in
  loop ();
  ignore (Atomic.fetch_and_add global_executed (t.executed - before))

let executed_events t = t.executed

let pending_events t =
  Array.fold_left (fun n l -> n + l.len) (Heap.length t.queue) t.lanes
