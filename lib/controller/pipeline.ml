open Jury_sim

type config = {
  base_service : Time.t;
  service_sigma : float;
  overload_backlog : Time.t;
}

let config ?(service_sigma = 0.25) ?(overload_backlog = Time.ms 1500)
    ~base_service () =
  { base_service; service_sigma; overload_backlog }

(* Service-time multiplier in the collapsed regime. *)
let degraded_factor = 200

type t = {
  engine : Engine.t;
  cfg : config;
  footprint : Footprint.t;
  rng : Rng.t;
  mu : float;  (* the service time's log-median, in log-microseconds *)
  queue : (unit -> unit) Queue.t;  (* the jobs waiting behind [current] *)
  mutable current : unit -> unit;  (* the job in service, while [serving] *)
  mutable complete : unit -> unit;
      (* the completion event of every job: at most one is pending *)
  mutable serving : bool;
  mutable busy_until : Time.t;
  mutable overloaded : bool;
  mutable collapsed : bool;
  mutable window_start : Time.t;
  mutable window_drops : int;
  mutable completed : int;
  mutable dropped : int;
}

let noop () = ()

let backlog t =
  (* Work ahead of a new arrival: the in-flight remainder plus a
     base-service estimate per queued job (their true service times are
     revealed at execution). *)
  let now = Engine.now t.engine in
  let in_flight =
    if Time.(t.busy_until <= now) then Time.zero else Time.sub t.busy_until now
  in
  Time.add in_flight (Time.mul t.cfg.base_service (Queue.length t.queue))

let update_overload t =
  let b = backlog t in
  if t.overloaded then begin
    if Time.(b < Time.div t.cfg.overload_backlog 2) then t.overloaded <- false
  end
  else if Time.(b > t.cfg.overload_backlog) then t.overloaded <- true

(* Steady moderate overload just sheds arrivals (TCP backpressure: the
   switch stalls, the server plateaus at capacity). A Cbench-scale blast
   — drop rate several times the service capacity, sustained for a full
   window — pushes the controller into the collapsed regime the paper
   observed (memory bloat, zero-window stalls), where service slows by
   [degraded_factor] and throughput goes to ~0. *)
let collapse_window = Time.sec 1

let note_drop t =
  let now = Engine.now t.engine in
  if Time.(Time.diff now t.window_start > collapse_window) then begin
    let per_window_capacity =
      Float.max 1.
        (Time.to_float_sec collapse_window
        /. Float.max 1e-6 (Time.to_float_sec t.cfg.base_service))
    in
    if float_of_int t.window_drops > 5. *. per_window_capacity then
      t.collapsed <- true
    else if
      t.collapsed
      && float_of_int t.window_drops < 0.5 *. per_window_capacity
      && not t.overloaded
    then t.collapsed <- false;
    t.window_start <- now;
    t.window_drops <- 0
  end;
  t.window_drops <- t.window_drops + 1

let sample_service t =
  let s =
    Time.of_float_us (Rng.lognormal t.rng ~mu:t.mu ~sigma:t.cfg.service_sigma)
  in
  if t.collapsed then Time.mul s degraded_factor else s

(* Serves [job]: draws its service time and schedules [complete].
   Nothing is queued while the server idles, so a job that arrives
   then starts here at once. *)
let rec start t job =
  t.serving <- true;
  t.current <- job;
  let now = Engine.now t.engine in
  let start = Time.max now t.busy_until in
  let finish = Time.add start (sample_service t) in
  t.busy_until <- finish;
  Engine.schedule_on_at t.engine t.footprint ~at:finish t.complete

and complete t =
  t.completed <- t.completed + 1;
  (* Read before running: the job may submit to this pipeline. It may
     also add_load (store-sync stalls); the next job starts only after
     those are absorbed. *)
  let job = t.current in
  t.current <- noop;
  job ();
  if Queue.is_empty t.queue then t.serving <- false
  else start t (Queue.take t.queue)

let create ?(footprint = Footprint.opaque) engine cfg =
  let t =
    { engine;
      cfg;
      footprint;
      rng = Rng.split (Engine.rng engine);
      mu = log (Float.max 0.001 (Time.to_float_us cfg.base_service));
      queue = Queue.create ();
      current = noop;
      complete = noop;
      serving = false;
      busy_until = Time.zero;
      overloaded = false;
      collapsed = false;
      window_start = Time.zero;
      window_drops = 0;
      completed = 0;
      dropped = 0 }
  in
  t.complete <- (fun () -> complete t);
  t

let submit ?span t job =
  update_overload t;
  if t.overloaded then begin
    t.dropped <- t.dropped + 1;
    note_drop t;
    match span with
    | None -> ()
    | Some span ->
        Jury_obs.Trace.close_span (Engine.trace t.engine)
          ~t_ns:(Engine.now_ns t.engine) span
          [ ("dropped", "overload") ]
  end
  else begin
    let job =
      match span with
      | None -> job
      | Some span ->
          let enqueued_ns = Engine.now_ns t.engine in
          fun () ->
            job ();
            let now_ns = Engine.now_ns t.engine in
            Jury_obs.Trace.close_span (Engine.trace t.engine) ~t_ns:now_ns
              span
              [ ("queued_us",
                 Printf.sprintf "%.1f"
                   (float_of_int (now_ns - enqueued_ns) /. 1e3)) ]
    in
    if t.serving then Queue.push job t.queue else start t job
  end

let add_load t cost =
  let now = Engine.now t.engine in
  let start = Time.max now t.busy_until in
  t.busy_until <- Time.add start cost;
  update_overload t

let utilization_hint t =
  let b = Time.to_float_us (backlog t) in
  let base = Float.max 1. (Time.to_float_us t.cfg.base_service) in
  Float.min 1000. (b /. base)

let overloaded t = t.overloaded || t.collapsed
let completed t = t.completed
let dropped t = t.dropped
