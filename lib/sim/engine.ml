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

(* Fills the heap's free payload slots. *)
let dummy = { live = false; action = noop; fp = Footprint.opaque }

type candidate = {
  cand_seq : int;
  cand_at : Time.t;
  cand_footprint : Footprint.t;
}

type chooser = candidate array -> int

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  queue : event Heap.t;
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

let schedule_at t ?(footprint = Footprint.opaque) ~at f =
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule_at: time is in the past";
  let event = { live = true; action = f; fp = footprint } in
  t.seq <- t.seq + 1;
  Heap.push t.queue ~key:at ~seq:t.seq event;
  event

let schedule t ?footprint ~after f =
  schedule_at t ?footprint ~at:(Time.add t.clock after) f

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

(* One heap removal per call, mirroring the plain path's accounting
   (clock advance, executed tick) exactly. Cancelled events drain
   before the chooser is consulted — they are no-ops, so their order
   within a tie is unobservable — and the chooser only ever sees a tie
   of two or more live events. *)
let step_choose t choose =
  if Heap.is_empty t.queue then false
  else begin
    let tied = Heap.tied_front t.queue in
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
    (match Heap.remove_seq t.queue ~seq with
    | None -> assert false
    | Some (_, _, event) ->
        t.clock <- at;
        t.executed <- t.executed + 1;
        execute t event);
    true
  end

let step t =
  match t.chooser with
  | Some choose -> step_choose t choose
  | None ->
      let q = t.queue in
      if Heap.is_empty q then false
      else begin
        let at = Heap.min_key q and event = Heap.min_value q in
        Heap.drop_min q;
        t.clock <- at;
        t.executed <- t.executed + 1;
        execute t event;
        true
      end

let run ?until t =
  let before = t.executed in
  (match until with
  | None -> while step t do () done
  | Some horizon ->
      let continue = ref true in
      while !continue do
        if Heap.is_empty t.queue then continue := false
        else if Time.(Heap.min_key t.queue > horizon) then begin
          t.clock <- horizon;
          continue := false
        end
        else ignore (step t)
      done);
  ignore (Atomic.fetch_and_add global_executed (t.executed - before))

let executed_events t = t.executed

let pending_events t = Heap.length t.queue
