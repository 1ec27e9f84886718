(* The traced pass: drive an engine one [Engine.step] at a time, time
   each step on the monotonic clock, and charge the whole step to the
   first layer (in [names] order) whose public counter moved during it.
   Every step lands in exactly one layer, so the layer totals add up to
   the stepped wall time by construction; [sim.other] collects steps
   that moved no counter (replica arrivals, batch-buffer appends,
   traffic-generator events, timers that found nothing to do).

   The order settles steps that move several counters: a response that
   completes a trigger is a decision, not an ingest; a shadow execution
   that writes a standalone replica's own store is shadow work; the
   replicator's interception step also registers the trigger with the
   validator but is replication work. *)

open Jury_sim

let names =
  [| "validator.decide"; "deployment.shadow"; "controller.pipeline";
     "deployment.replicate"; "validator.ingest"; "store.fabric";
     "net.switch"; "net.dataplane"; "sim.other" |]

let other = Array.length names - 1

(* A probe reads a fixed list of counters into an array; [owners.(i)] is
   the layer counter [i] belongs to, non-decreasing in [i]. *)
type probe = { owners : int array; read : int array -> unit }

type result = {
  ns : int array;       (** stepped wall ns per layer *)
  events : int array;   (** steps per layer *)
  stepped_ns : int;     (** sum of every step's wall time *)
  wall_ns : int;        (** whole pass, bookkeeping included *)
  depth : Measure.Counts.t;  (** queue depth after each step *)
  pauses : Measure.Pauses.totals;
}

let layer_of probe prev cur =
  let n = Array.length probe.owners in
  let i = ref 0 in
  while !i < n && cur.(!i) = prev.(!i) do incr i done;
  if !i = n then other else probe.owners.(!i)

(* [every_ms] runs once for every simulated millisecond that elapses,
   after the step that crossed it; [after_step] sees every step's wall
   time. Neither may schedule events: the traced pass must execute
   exactly the untraced pass's events. *)
let run engine probe ~finished ~every_ms ~after_step =
  let n = Array.length probe.owners in
  let prev = ref (Array.make n 0) and cur = ref (Array.make n 0) in
  probe.read !prev;
  let ns = Array.make (other + 1) 0 and events = Array.make (other + 1) 0 in
  let depth = Measure.Counts.create () in
  let next_ms = ref (Time.to_ns (Engine.now engine)) in
  let stepped = ref 0 and steps = ref 0 in
  let pauses = Measure.Pauses.start () in
  let wall0 = Measure.now_ns () in
  while not (finished ()) do
    let a = Measure.now_ns () in
    if not (Engine.step engine) then failwith "Layers.run: queue drained early";
    let dt = Measure.now_ns () - a in
    probe.read !cur;
    let layer = layer_of probe !prev !cur in
    ns.(layer) <- ns.(layer) + dt;
    events.(layer) <- events.(layer) + 1;
    stepped := !stepped + dt;
    let swap = !prev in
    prev := !cur;
    cur := swap;
    after_step dt;
    Measure.Counts.add depth (Engine.pending_events engine);
    let now = Time.to_ns (Engine.now engine) in
    while now >= !next_ms do
      every_ms ();
      next_ms := !next_ms + 1_000_000
    done;
    incr steps;
    if !steps land 4095 = 0 then Measure.Pauses.poll pauses
  done;
  let wall_ns = Measure.now_ns () - wall0 in
  { ns; events; stepped_ns = !stepped; wall_ns; depth;
    pauses = Measure.Pauses.stop pauses }

let total_events r = Array.fold_left ( + ) 0 r.events

(* The three step-attribution figures of every layer. *)
let metrics r ~triggers =
  Array.to_list names
  |> List.mapi (fun i name ->
         [ (name ^ ".ns_per_trigger", Measure.per r.ns.(i) triggers);
           (name ^ ".events_per_trigger", Measure.per r.events.(i) triggers);
           (name ^ ".ns_per_event", Measure.per r.ns.(i) r.events.(i)) ])
  |> List.concat

(* Engine figures of a traced pass; [dispatch] is the engine's own cost
   per event. *)
let engine_metrics r ~dispatch ~triggers =
  let events_per_trigger = Measure.per (total_events r) triggers in
  [ ("sim.dispatch_ns_per_event", dispatch);
    ("sim.dispatch_ns_per_trigger", dispatch *. events_per_trigger);
    ("sim.events_per_trigger", events_per_trigger);
    ("sim.queue_depth_p50", float_of_int (Measure.Counts.median r.depth));
    ("sim.queue_depth_max", float_of_int r.depth.Measure.Counts.top) ]

(* GC figures: collection counts from the untraced pass [gc], pauses
   from the traced pass's runtime-event ring. *)
let gc_metrics r ~(gc : Measure.gc) ~triggers =
  let pauses = r.pauses in
  [ ("gc.minor_collections_per_ktrigger",
     1000. *. Measure.per gc.Measure.minor_collections triggers);
    ("gc.major_collections", float_of_int gc.Measure.major_collections);
    ("gc.promoted_words_per_trigger",
     Measure.fper gc.Measure.promoted_words triggers);
    ("gc.pause_ms_total", float_of_int pauses.Measure.Pauses.total_ns /. 1e6);
    ("gc.pause_ms_max", float_of_int pauses.Measure.Pauses.max_ns /. 1e6) ]

(* Engine dispatch cost at a given queue depth: a bare engine holding
   [depth] no-op events that each reschedule themselves at a
   pseudo-random delay, so each step is one heap pop, one closure call
   and one heap push — the engine's share of any step. Median of five
   timed batches after a warm-up. *)
let dispatch_ns_per_event ~depth =
  let engine = Engine.create ~seed:1 () in
  let rng = Rng.create 0xd15 in
  let delays = Array.init 4096 (fun _ -> Time.ns (1 + Rng.int rng 1_000_000)) in
  let i = ref 0 in
  let rec noop () =
    incr i;
    ignore (Engine.schedule engine ~after:delays.(!i land 4095) noop)
  in
  for _ = 1 to max 1 depth do noop () done;
  let steps n = for _ = 1 to n do ignore (Engine.step engine) done in
  steps 50_000;
  let batch = 200_000 in
  Array.init 5 (fun _ ->
      let a = Measure.now_ns () in
      steps batch;
      Measure.per (Measure.now_ns () - a) batch)
  |> Measure.median
