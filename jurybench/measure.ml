(* Clocks, order statistics, GC counters, GC pauses and the verdict
   digest shared by the workloads. *)

module Time = Jury_sim.Time
module Alarm = Jury.Alarm

(* CLOCK_MONOTONIC in ns; unboxed and allocation-free, so reading it
   around every engine step does not perturb the GC counts it sits
   beside. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let percentile xs q =
  if Array.length xs = 0 then 0. else Jury_stats.Summary.percentile xs q

let median xs = percentile xs 0.5

(* Index of the median element, so a caller can report every figure of
   the run whose key figure is the median (keeping its parts
   consistent with each other). *)
let median_index (xs : float array) =
  let idx = Array.init (Array.length xs) Fun.id in
  Array.stable_sort (fun a b -> compare xs.(a) xs.(b)) idx;
  idx.((Array.length xs - 1) / 2)

let per x n = if n <= 0 then 0. else float_of_int x /. float_of_int n
let fper x n = if n <= 0 then 0. else x /. float_of_int n

(* --- GC counters --- *)

type gc = {
  alloc_words : float;  (** minor + major - promoted: words allocated *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc_now () =
  let s = Gc.quick_stat () in
  { alloc_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections }

let gc_diff a b =
  { alloc_words = b.alloc_words -. a.alloc_words;
    promoted_words = b.promoted_words -. a.promoted_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* --- Sample buffers --- *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len

  (* [name_p50] and [name_max]. *)
  let summary name t =
    let xs = to_array t in
    [ (name ^ "_p50", median xs); (name ^ "_max", Array.fold_left Float.max 0. xs) ]
end

(* Exact distribution of a small non-negative integer (queue depths). *)
module Counts = struct
  type t = { mutable counts : int array; mutable total : int; mutable top : int }

  let create () = { counts = Array.make 1024 0; total = 0; top = 0 }

  let add t v =
    if v >= Array.length t.counts then begin
      let bigger = Array.make (2 * (v + 1)) 0 in
      Array.blit t.counts 0 bigger 0 (Array.length t.counts);
      t.counts <- bigger
    end;
    t.counts.(v) <- t.counts.(v) + 1;
    t.total <- t.total + 1;
    if v > t.top then t.top <- v

  let median t =
    let half = (t.total + 1) / 2 in
    let rec go v acc =
      let acc = acc + t.counts.(v) in
      if acc >= half || v >= t.top then v else go (v + 1) acc
    in
    if t.total = 0 then 0 else go 0 0
end

(* --- GC pauses from the runtime's event ring ---

   A pause runs from the first begin of a minor collection or major
   slice to the end that closes it (the two nest inside each other in
   OCaml 5's stop-the-world sections). The ring is polled from the
   stepping loop, often enough that it cannot wrap. *)

module Pauses = struct
  type totals = {
    mutable depth : int;
    mutable started : int;
    mutable total_ns : int;
    mutable max_ns : int;
  }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    totals : totals;
  }

  let gc_phase = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false

  let ts at = Int64.to_int (Runtime_events.Timestamp.to_int64 at)

  let started_once = ref false

  let start () =
    if !started_once then Runtime_events.resume ()
    else begin
      Runtime_events.start ();
      started_once := true
    end;
    let s = { depth = 0; started = 0; total_ns = 0; max_ns = 0 } in
    let runtime_begin _ at phase =
      if gc_phase phase then begin
        if s.depth = 0 then s.started <- ts at;
        s.depth <- s.depth + 1
      end
    in
    let runtime_end _ at phase =
      if gc_phase phase && s.depth > 0 then begin
        s.depth <- s.depth - 1;
        if s.depth = 0 then begin
          let d = ts at - s.started in
          s.total_ns <- s.total_ns + d;
          if d > s.max_ns then s.max_ns <- d
        end
      end
    in
    let t =
      { cursor = Runtime_events.create_cursor None;
        callbacks =
          Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
        totals = s }
    in
    (* Drop whatever the ring held before this pass. *)
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    s.depth <- 0;
    s.total_ns <- 0;
    s.max_ns <- 0;
    t

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

  let stop t =
    poll t;
    Runtime_events.pause ();
    Runtime_events.free_cursor t.cursor;
    t.totals
end

(* --- Verdict digest --- *)

(* One line per decided verdict: taint, trigger and decision instants
   (ns), verdict label and suspects. Lines are sorted before hashing:
   equal digests mean the two runs decided the same triggers the same
   way at the same simulated instants, whatever order the verdict list
   holds them in (a staged run merges shard streams in its own order). *)
let verdict_digest (verdicts : Alarm.t list) =
  let line (a : Alarm.t) =
    String.concat " "
      (Jury_controller.Types.Taint.to_string a.taint
      :: string_of_int (Time.to_ns a.trigger_at)
      :: string_of_int (Time.to_ns a.decided_at)
      :: Alarm.verdict_name a.verdict
      :: List.map string_of_int a.suspects)
  in
  List.rev_map line verdicts
  |> List.sort String.compare
  |> String.concat "\n"
  |> Digest.string |> Digest.to_hex
