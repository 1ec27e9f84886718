(* A scheduled event is its own cancellation handle. [action] and [fp]
   are mutable so that cancelling can swap them for the shared [noop]
   and [Footprint.opaque]: a cancelled event stays queued until its
   timestamp (so event counts and the clock are unchanged) but retains
   nothing it captured or declared. Only the chooser reads [fp], and it
   never sees a cancelled event. *)
type event = {
  mutable live : bool;
  mutable action : unit -> unit;
  mutable fp : Footprint.t;
}

let noop () = ()

(* Fills the free payload slots of the heap and the lanes. *)
let dummy = { live = false; action = noop; fp = Footprint.opaque }

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
   takes the head, with no sifting. As in the heap, the priorities sit
   in int arrays and a freed payload slot is reset to [dummy]. The
   capacity is a power of two; [head] is the oldest entry's position. *)
type lane = {
  delay : Time.t;
  mutable keys : Time.t array;
  mutable seqs : int array;
  mutable vals : event array;
  mutable head : int;
  mutable len : int;
}

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  queue : event Heap.t;
  mutable lanes : lane array;
  root_rng : Rng.t;
  mutable trace : Jury_obs.Trace.t;
  mutable executed : int;
  mutable chooser : chooser option;
}

type handle = event

(* Process-wide executed-event tally across every engine (and every
   domain — experiment sweeps run one engine per pool task). Updated in
   one batch per [run] call, not per event, so the shared cache line is
   touched a handful of times per simulation instead of millions. *)
let global_executed = Atomic.make 0
let total_executed () = Atomic.get global_executed

let create ?(seed = 42) () =
  { clock = Time.zero;
    seq = 0;
    queue = Heap.create ~dummy ();
    lanes = [||];
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

let push_heap t ~footprint ~at f =
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule_at: time is in the past";
  let event = { live = true; action = f; fp = footprint } in
  t.seq <- t.seq + 1;
  Heap.push t.queue ~key:at ~seq:t.seq event;
  event

let schedule_at t ?(footprint = Footprint.opaque) ~at f =
  push_heap t ~footprint ~at f

let schedule t ?(footprint = Footprint.opaque) ~after f =
  push_heap t ~footprint ~at:(Time.add t.clock after) f

(* --- Fixed-delay lanes --- *)

(* Distinct delays that get a lane; a delay first seen once the table
   is full goes to the heap. *)
let max_lanes = 8

let lane_create delay =
  { delay; keys = Array.make 16 Time.zero; seqs = Array.make 16 0;
    vals = Array.make 16 dummy; head = 0; len = 0 }

let[@inline] lane_pos l i = (l.head + i) land (Array.length l.keys - 1)

(* Doubles the ring, unrolling it so the head lands at 0. *)
let lane_grow l =
  let cap = Array.length l.keys in
  let keys = Array.make (2 * cap) Time.zero in
  let seqs = Array.make (2 * cap) 0 in
  let vals = Array.make (2 * cap) dummy in
  for i = 0 to l.len - 1 do
    let j = lane_pos l i in
    keys.(i) <- l.keys.(j);
    seqs.(i) <- l.seqs.(j);
    vals.(i) <- l.vals.(j)
  done;
  l.keys <- keys;
  l.seqs <- seqs;
  l.vals <- vals;
  l.head <- 0

(* Drops the head entry, releasing its payload slot. *)
let lane_drop_head l =
  l.vals.(l.head) <- dummy;
  l.head <- lane_pos l 1;
  l.len <- l.len - 1

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

let schedule_fixed t ?(footprint = Footprint.opaque) ~after f =
  let i = lane_index t after 0 in
  if i < 0 then push_heap t ~footprint ~at:(Time.add t.clock after) f
  else begin
    let l = t.lanes.(i) in
    if l.len = Array.length l.keys then lane_grow l;
    let event = { live = true; action = f; fp = footprint } in
    t.seq <- t.seq + 1;
    let j = lane_pos l l.len in
    l.keys.(j) <- Time.add t.clock after;
    l.seqs.(j) <- t.seq;
    l.vals.(j) <- event;
    l.len <- l.len + 1;
    event
  end

(* Whether priority [(k, s)] pops strictly before [(k', s')]. *)
let[@inline] before (k : Time.t) s (k' : Time.t) s' =
  (k :> int) < (k' :> int) || (k = k' && s < s')

(* The queue holding the next event: [from_heap], a lane's index, or
   [nothing] when every queue is empty. Allocates nothing. *)
let from_heap = -1
let nothing = -2

let next_source t =
  let best = ref nothing and bk = ref Time.zero and bs = ref 0 in
  if not (Heap.is_empty t.queue) then begin
    best := from_heap;
    bk := Heap.min_key t.queue;
    bs := Heap.min_seq t.queue
  end;
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = lanes.(i) in
    if l.len > 0 then begin
      let k = l.keys.(l.head) and s = l.seqs.(l.head) in
      if !best = nothing || before k s !bk !bs then begin
        best := i;
        bk := k;
        bs := s
      end
    end
  done;
  !best

let source_key t src =
  if src = from_heap then Heap.min_key t.queue
  else
    let l = t.lanes.(src) in
    l.keys.(l.head)

let cancel h =
  h.live <- false;
  h.action <- noop;
  h.fp <- Footprint.opaque

let is_pending h = h.live

let every t ~period ?jitter ?footprint f =
  (* A recurrence is a chain of one-shot events; the caller's handle is
     kept pointing at the chain head so cancelling it stops the chain.
     Each link runs the head's [action] rather than capturing [f], so
     cancelling the head also drops [f]. *)
  let chain = { live = true; action = f; fp = Footprint.opaque } in
  let rec arm () =
    let delay =
      match jitter with
      | None -> period
      | Some j ->
          if Time.to_ns j = 0 then period
          else Time.add period (Time.ns (Rng.int t.root_rng (Time.to_ns j)))
    in
    ignore
      (schedule t ?footprint ~after:delay (fun () ->
           if chain.live then begin
             chain.action ();
             if chain.live then arm ()
           end))
  in
  arm ();
  chain

let execute _t event =
  if event.live then begin
    event.live <- false;
    event.action ()
  end

(* Every queued event at the minimum timestamp, from the heap and the
   lanes, in ascending seq order; [[]] if nothing is queued. A lane's
   tied events are a prefix of it. *)
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
              take (i + 1) ((at, l.seqs.(j), l.vals.(j)) :: acc)
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

(* Removes the lane entry [i] places behind the head: the entries ahead
   of it move back one place, so the lane stays in order. *)
let lane_remove l i =
  let event = l.vals.(lane_pos l i) in
  for n = i downto 1 do
    let dst = lane_pos l n and src = lane_pos l (n - 1) in
    l.keys.(dst) <- l.keys.(src);
    l.seqs.(dst) <- l.seqs.(src);
    l.vals.(dst) <- l.vals.(src)
  done;
  lane_drop_head l;
  event

(* Removes the event queued with [seq], wherever it waits. *)
let remove_seq t ~seq =
  match Heap.remove_seq t.queue ~seq with
  | Some (_, _, event) -> event
  | None ->
      let rec in_lane li =
        if li = Array.length t.lanes then invalid_arg "Engine: no such event";
        let l = t.lanes.(li) in
        let rec find i =
          if i = l.len then in_lane (li + 1)
          else if l.seqs.(lane_pos l i) = seq then lane_remove l i
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
        List.find_opt (fun (_, _, (e : event)) -> not e.live) tied
      in
      let at, seq =
        match dead with
        | Some (at, seq, _) -> (at, seq)
        | None -> (
            match tied with
            | [ (at, seq, _) ] -> (at, seq)
            | _ ->
                let cands =
                  Array.of_list
                    (List.map
                       (fun (at, seq, (e : event)) ->
                         { cand_seq = seq; cand_at = at; cand_footprint = e.fp })
                       tied)
                in
                let i = choose cands in
                if i < 0 || i >= Array.length cands then
                  invalid_arg "Engine: chooser index out of range";
                (cands.(i).cand_at, cands.(i).cand_seq))
      in
      let event = remove_seq t ~seq in
      t.clock <- at;
      t.executed <- t.executed + 1;
      execute t event;
      true

(* Pops and runs the head of [src], which [next_source] chose. *)
let step_from t src =
  let event =
    if src = from_heap then begin
      let q = t.queue in
      let event = Heap.min_value q in
      t.clock <- Heap.min_key q;
      Heap.drop_min q;
      event
    end
    else begin
      let l = t.lanes.(src) in
      let event = l.vals.(l.head) in
      t.clock <- l.keys.(l.head);
      lane_drop_head l;
      event
    end
  in
  t.executed <- t.executed + 1;
  execute t event

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
