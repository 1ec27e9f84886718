type error = { task_index : int; message : string; backtrace : string }

exception Tasks_failed of error list

let () =
  Printexc.register_printer (function
    | Tasks_failed errors ->
        Some
          (Printf.sprintf "Jury_par.Pool.Tasks_failed: %d task(s) died: %s"
             (List.length errors)
             (String.concat "; "
                (List.map
                   (fun e ->
                     Printf.sprintf "task %d: %s" e.task_index e.message)
                   errors)))
    | _ -> None)

(* Process-wide count of domains ever spawned on behalf of a pool
   (persistent workers and dedicated async fallbacks alike). The bench
   reports deltas of this to show that a sweep of N map_ordered calls
   now costs at most [jobs - 1] spawns instead of N * (jobs - 1). *)
let spawn_counter = Atomic.make 0
let domains_spawned () = Atomic.get spawn_counter

let counted_spawn f =
  Atomic.incr spawn_counter;
  Domain.spawn f

type t = {
  jobs : int;
  lock : Mutex.t;
  wakeup : Condition.t;
  pending : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list; (* persistent, spawned lazily *)
  mutable idle : int; (* workers blocked waiting for a task *)
  mutable shutdown : bool;
}

(* Every pool that ever spawned a worker, so process exit can join
   them all (an OCaml program must not exit with live domains). *)
let registry_lock = Mutex.create ()
let registry : t list ref = ref []
let at_exit_installed = ref false

let shutdown_pool t =
  Mutex.lock t.lock;
  t.shutdown <- true;
  Condition.broadcast t.wakeup;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join workers

let register_for_exit t =
  Mutex.lock registry_lock;
  if not (List.memq t !registry) then registry := t :: !registry;
  if not !at_exit_installed then begin
    at_exit_installed := true;
    Stdlib.at_exit (fun () ->
        let pools =
          Mutex.lock registry_lock;
          let ps = !registry in
          registry := [];
          Mutex.unlock registry_lock;
          ps
        in
        List.iter shutdown_pool pools)
  end;
  Mutex.unlock registry_lock

let rec worker_loop t =
  Mutex.lock t.lock;
  t.idle <- t.idle + 1;
  while Queue.is_empty t.pending && not t.shutdown do
    Condition.wait t.wakeup t.lock
  done;
  t.idle <- t.idle - 1;
  if Queue.is_empty t.pending then Mutex.unlock t.lock (* shutdown *)
  else begin
    let task = Queue.pop t.pending in
    Mutex.unlock t.lock;
    (* Tasks are wrapped by their submitters; a raise here would mean a
       bug in the wrapping, not in user code — don't kill the worker. *)
    (try task () with _ -> ());
    worker_loop t
  end

let env_jobs () =
  match Sys.getenv_opt "JURY_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  { jobs;
    lock = Mutex.create ();
    wakeup = Condition.create ();
    pending = Queue.create ();
    workers = [];
    idle = 0;
    shutdown = false }

let jobs t = t.jobs

(* The ambient pool experiment entry points fall back on when the
   caller does not pass one. Set once from the main domain (CLI flag
   parsing) before any parallel work starts; worker domains never touch
   it. *)
let default_pool = ref None

let set_default_jobs jobs = default_pool := Some (create ~jobs ())

let default () =
  match !default_pool with
  | Some t -> t
  | None ->
      let t = create () in
      default_pool := Some t;
      t

(* Must be called with [t.lock] held. Tops the persistent worker set
   up to [want] (capped at [jobs - 1]: the submitting domain is always
   worker zero, so [jobs] bounds busy domains, not spawned ones). *)
let ensure_workers_locked t want =
  let cap = if t.shutdown then 0 else t.jobs - 1 in
  let have = List.length t.workers in
  let missing = min want cap - have in
  if missing > 0 then begin
    for _ = 1 to missing do
      t.workers <- counted_spawn (fun () -> worker_loop t) :: t.workers
    done;
    register_for_exit t
  end

let submit_n_locked t thunks =
  List.iter (fun f -> Queue.push f t.pending) thunks;
  Condition.broadcast t.wakeup

let persistent_workers t =
  Mutex.lock t.lock;
  let n = List.length t.workers in
  Mutex.unlock t.lock;
  n

let try_map_ordered t xs f =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let completed = Atomic.make 0 in
    let exec i =
      let r =
        match f items.(i) with
        | y -> Ok y
        | exception exn ->
            Error
              { task_index = i;
                message = Printexc.to_string exn;
                backtrace = Printexc.get_backtrace () }
      in
      results.(i) <- Some r;
      (* The atomic increment publishes the plain [results] write: the
         submitter reads [completed = n] before touching [results]. *)
      Atomic.incr completed
    in
    let workers = min t.jobs n in
    if workers <= 1 then
      for i = 0 to n - 1 do
        exec i
      done
    else begin
      (* Work stealing off a shared index: tasks are coarse (whole
         simulation runs), so one atomic per task is noise. Each slot
         of [results] is written by exactly one domain. Helpers run on
         the pool's persistent workers; a helper that only gets
         scheduled after the sweep is drained exits immediately, so
         the submitting domain never depends on helpers for progress
         (it loops until the index runs out, then waits on
         [completed]). *)
      let next = Atomic.make 0 in
      let steal () =
        let rec loop () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            exec i;
            loop ()
          end
        in
        loop ()
      in
      Mutex.lock t.lock;
      ensure_workers_locked t (workers - 1);
      submit_n_locked t (List.init (workers - 1) (fun _ -> steal));
      Mutex.unlock t.lock;
      steal ();
      while Atomic.get completed < n do
        Domain.cpu_relax ()
      done
    end;
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

let map_ordered t xs f =
  let results = try_map_ordered t xs f in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) results
  in
  if errors <> [] then raise (Tasks_failed errors);
  List.map (function Ok y -> y | Error _ -> assert false) results

let map_grid t rows cols f =
  let cells = List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows in
  let results = Array.of_list (map_ordered t cells (fun (r, c) -> f r c)) in
  let n = List.length cols in
  List.mapi (fun i r -> (r, List.init n (fun j -> results.((i * n) + j)))) rows

(* --- long-running async tasks (pipeline stage consumers) --- *)

type ticket = {
  tk_lock : Mutex.t;
  tk_done : Condition.t;
  mutable tk_finished : bool;
  mutable tk_error : (exn * Printexc.raw_backtrace) option;
  mutable tk_domain : unit Domain.t option; (* dedicated-spawn fallback *)
}

let async t f =
  let ticket =
    { tk_lock = Mutex.create ();
      tk_done = Condition.create ();
      tk_finished = false;
      tk_error = None;
      tk_domain = None }
  in
  let body () =
    let err =
      match f () with
      | () -> None
      | exception exn -> Some (exn, Printexc.get_raw_backtrace ())
    in
    Mutex.lock ticket.tk_lock;
    ticket.tk_error <- err;
    ticket.tk_finished <- true;
    Condition.signal ticket.tk_done;
    Mutex.unlock ticket.tk_lock
  in
  Mutex.lock t.lock;
  (* A long-running task must start promptly even when every persistent
     worker is occupied (or the pool is serial): an SPSC producer will
     block on a consumer that never runs. Reuse an idle worker when one
     is free, grow the persistent set if under budget, and otherwise
     fall back to a dedicated domain so liveness never depends on pool
     capacity. *)
  let backlog = Queue.length t.pending in
  if (not t.shutdown) && t.idle > backlog then submit_n_locked t [ body ]
  else if (not t.shutdown) && List.length t.workers < t.jobs - 1 then begin
    ensure_workers_locked t (List.length t.workers + 1);
    submit_n_locked t [ body ]
  end
  else ticket.tk_domain <- Some (counted_spawn body);
  Mutex.unlock t.lock;
  ticket

let shutdown = shutdown_pool

let await ticket =
  (match ticket.tk_domain with
  | Some d -> Domain.join d
  | None ->
      Mutex.lock ticket.tk_lock;
      while not ticket.tk_finished do
        Condition.wait ticket.tk_done ticket.tk_lock
      done;
      Mutex.unlock ticket.tk_lock);
  match ticket.tk_error with
  | None -> ()
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
