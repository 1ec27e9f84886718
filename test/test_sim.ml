(* Unit and property tests for the discrete-event engine substrate. *)

open Jury_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time --- *)

let test_time_units () =
  check_int "us" 1_000 (Time.to_ns (Time.us 1));
  check_int "ms" 1_000_000 (Time.to_ns (Time.ms 1));
  check_int "sec" 1_000_000_000 (Time.to_ns (Time.sec 1));
  Alcotest.(check (float 1e-9)) "to_float_sec" 1.5
    (Time.to_float_sec (Time.of_float_sec 1.5));
  Alcotest.(check (float 1e-6)) "ms roundtrip" 129.3
    (Time.to_float_ms (Time.of_float_ms 129.3))

let test_time_arith () =
  let a = Time.ms 5 and b = Time.ms 3 in
  check_int "add" 8_000_000 (Time.to_ns (Time.add a b));
  check_int "sub" 2_000_000 (Time.to_ns (Time.sub a b));
  check_int "diff sym" (Time.to_ns (Time.diff a b)) (Time.to_ns (Time.diff b a));
  check_int "mul" 15_000_000 (Time.to_ns (Time.mul a 3));
  check_int "div" 2_500_000 (Time.to_ns (Time.div a 2));
  Alcotest.check_raises "negative sub" (Invalid_argument "Time.sub: negative result")
    (fun () -> ignore (Time.sub b a));
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.ns: negative")
    (fun () -> ignore (Time.ns (-1)))

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time.to_string (Time.ns 500));
  Alcotest.(check string) "us" "12.0us" (Time.to_string (Time.us 12));
  Alcotest.(check string) "ms" "129.0ms" (Time.to_string (Time.ms 129));
  Alcotest.(check string) "sec" "2.000s" (Time.to_string (Time.sec 2))

(* --- Rng --- *)

(* Every stream, bit for bit: [Rng_golden] holds the first 32 outputs
   per seed, floats as their bit patterns. [copy] draws from the copy
   after advancing the original, so a copy sharing its original's
   state would read every other output. *)
let golden_draws =
  let bits = Int64.bits_of_float and of_bool b = if b then 1L else 0L in
  [ ("bits64", Rng.bits64);
    ("int 7", fun r -> Int64.of_int (Rng.int r 7));
    ("int 1000", fun r -> Int64.of_int (Rng.int r 1000));
    ("int 2^20", fun r -> Int64.of_int (Rng.int r (1 lsl 20)));
    ("int_in", fun r -> Int64.of_int (Rng.int_in r (-5) 12));
    ("float", fun r -> bits (Rng.float r 2.5));
    ("bool", fun r -> of_bool (Rng.bool r));
    ("bernoulli", fun r -> of_bool (Rng.bernoulli r 0.3));
    ("exponential", fun r -> bits (Rng.exponential r 10.));
    ("gaussian", fun r -> bits (Rng.gaussian r ~mean:1. ~stddev:2.));
    ("lognormal", fun r -> bits (Rng.lognormal r ~mu:0.5 ~sigma:0.8));
    ("pareto", fun r -> bits (Rng.pareto r ~xm:1.5 ~alpha:1.2));
    ("split", fun r -> Rng.bits64 (Rng.split r));
    ( "copy",
      fun r ->
        let c = Rng.copy r in
        ignore (Rng.bits64 r);
        Rng.bits64 c ) ]

let test_rng_golden () =
  check_int "every stream pinned at both seeds"
    (2 * List.length golden_draws) (List.length Rng_golden.streams);
  List.iter
    (fun (name, seed, expected) ->
      let draw = List.assoc name golden_draws and r = Rng.create seed in
      let got = Array.init (Array.length expected) (fun _ -> draw r) in
      Alcotest.(check (array int64)) (Printf.sprintf "%s, seed %d" name seed)
        expected got)
    Rng_golden.streams

(* A draw allocates nothing but, for a float, the box its caller's
   closure returns it in (2 words). *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 5 in
  let per_draw name f =
    ignore (Sys.opaque_identity (f r));
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      ignore (Sys.opaque_identity (f r))
    done;
    let words = (Gc.minor_words () -. before) /. 10_000. in
    check_bool (Printf.sprintf "%s: %.2f words per draw <= 2" name words)
      true (words <= 2.)
  in
  per_draw "int 7" (fun r -> Rng.int r 7);
  per_draw "float" (fun r -> Rng.float r 1.);
  per_draw "bernoulli" (fun r -> Rng.bernoulli r 0.3);
  per_draw "exponential" (fun r -> Rng.exponential r 10.);
  per_draw "gaussian" (fun r -> Rng.gaussian r ~mean:1. ~stddev:2.);
  per_draw "lognormal" (fun r -> Rng.lognormal r ~mu:0.5 ~sigma:0.8)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let x = Rng.bits64 child and y = Rng.bits64 parent in
  check_bool "split differs from parent" true (x <> y)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "int in range" true (v >= 0 && v < 17);
    let w = Rng.int_in rng 5 9 in
    check_bool "int_in range" true (w >= 5 && w <= 9);
    let f = Rng.float rng 2.5 in
    check_bool "float in range" true (f >= 0. && f < 2.5)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng 10.
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exponential mean near 10" true (mean > 9. && mean < 11.)

let test_rng_bernoulli () =
  let rng = Rng.create 13 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. 10_000. in
  check_bool "bernoulli ~0.3" true (p > 0.27 && p < 0.33)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 17 in
  let xs = [ 1; 2; 3; 4; 5; 6; 7 ] in
  let s = Rng.sample_without_replacement rng 3 xs in
  check_int "sample size" 3 (List.length s);
  check_int "distinct" 3 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> check_bool "member" true (List.mem x xs)) s;
  check_int "k >= n returns all" 7
    (List.length (Rng.sample_without_replacement rng 10 xs))

let test_rng_choice_shuffle () =
  let rng = Rng.create 19 in
  let arr = Array.init 10 Fun.id in
  for _ = 1 to 50 do
    let c = Rng.choice rng arr in
    check_bool "choice member" true (c >= 0 && c < 10)
  done;
  let arr2 = Array.copy arr in
  Rng.shuffle rng arr2;
  Array.sort compare arr2;
  Alcotest.(check (array int)) "shuffle is permutation" arr arr2

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create () in
  let rng = Rng.create 23 in
  for i = 1 to 500 do
    Heap.push h ~key:(Time.us (Rng.int rng 1000)) ~seq:i i
  done;
  let prev = ref (Time.zero, 0) in
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Heap.pop h with
    | None -> continue := false
    | Some (key, seq, _) ->
        let pk, ps = !prev in
        check_bool "non-decreasing key" true
          (Time.compare pk key < 0 || (Time.equal pk key && ps < seq));
        prev := (key, seq);
        incr count
  done;
  check_int "all popped" 500 !count

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 1 to 10 do
    Heap.push h ~key:(Time.ms 1) ~seq:i i
  done;
  for i = 1 to 10 do
    match Heap.pop h with
    | Some (_, _, v) -> check_int "fifo order on ties" i v
    | None -> Alcotest.fail "heap empty early"
  done

(* --- Engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~after:(Time.ms 2) (fun () -> log := 2 :: !log));
  ignore (Engine.schedule e ~after:(Time.ms 1) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~after:(Time.ms 3) (fun () -> log := 3 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" 3_000_000 (Time.to_ns (Engine.now e))

let timer e ~after f = Engine.timer e Footprint.opaque ~fixed:false ~after f

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = timer e ~after:(Time.ms 1) (fun () -> fired := true) in
  check_bool "pending" true (Engine.is_pending e h);
  Engine.cancel e h;
  check_bool "not pending" false (Engine.is_pending e h);
  Engine.run e;
  check_bool "cancelled never fires" false !fired;
  check_bool "no handle is never pending" false
    (Engine.is_pending e Engine.no_handle);
  Engine.cancel e Engine.no_handle

(* Schedules an event whose closure alone captures a fresh payload,
   tracked by [weak]; not inlined, so no stack slot of the caller keeps
   the payload alive. *)
let[@inline never] schedule_capturing e weak =
  let payload = ref 0 in
  Weak.set weak 0 (Some payload);
  timer e ~after:(Time.ms 5) (fun () -> incr payload)

(* Like [schedule_capturing], for a recurrence counting into [fired]. *)
let[@inline never] every_capturing e weak fired =
  let payload = ref 0 in
  Weak.set weak 0 (Some payload);
  Engine.every e ~period:(Time.ms 10) (fun () ->
      incr payload;
      incr fired)

(* A cancelled event stays queued until its timestamp, but what its
   closure captured must be collectable at once. *)
let test_engine_cancel_releases () =
  let e = Engine.create () in
  let weak = Weak.create 1 in
  let h = schedule_capturing e weak in
  Gc.full_major ();
  check_bool "queued event pins its payload" true (Weak.check weak 0);
  Engine.cancel e h;
  Gc.full_major ();
  check_bool "not pending" false (Engine.is_pending e h);
  check_int "still queued" 1 (Engine.pending_events e);
  check_bool "cancelled payload collectable" false (Weak.check weak 0);
  Engine.run e;
  check_int "dead event drains where it sits" 1 (Engine.executed_events e);
  check_int "clock advanced to it" 5_000_000 (Time.to_ns (Engine.now e));
  (* Cancelling a recurrence's handle stops its chain and drops the
     recurring closure, though the chain's next link is still queued. *)
  let fired = ref 0 in
  let h = every_capturing e weak fired in
  Engine.run e ~until:(Time.ms 35);
  Gc.full_major ();
  check_bool "recurrence pins its payload" true (Weak.check weak 0);
  Engine.cancel e h;
  Gc.full_major ();
  check_bool "every not pending" false (Engine.is_pending e h);
  check_int "next link still queued" 1 (Engine.pending_events e);
  check_bool "cancelled recurrence payload collectable" false
    (Weak.check weak 0);
  Engine.run e ~until:(Time.ms 200);
  check_int "every chain stopped" 3 !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(Time.ms i) (fun () -> incr fired))
  done;
  Engine.run e ~until:(Time.ms 5);
  check_int "only first five" 5 !fired;
  check_int "clock at horizon" 5_000_000 (Time.to_ns (Engine.now e));
  Engine.run e;
  check_int "rest run later" 10 !fired

let test_engine_every () =
  let e = Engine.create () in
  let fired = ref 0 in
  let h = Engine.every e ~period:(Time.ms 10) (fun () -> incr fired) in
  Engine.run e ~until:(Time.ms 55);
  check_int "five periods" 5 !fired;
  Engine.cancel e h;
  Engine.run e ~until:(Time.ms 200);
  check_int "stopped after cancel" 5 !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:(Time.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~after:(Time.ms 1) (fun () ->
                log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:(Time.ms 5) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:(Time.ms 1) (fun () -> ())))

let test_engine_every_jitter () =
  let e = Engine.create ~seed:4 () in
  let stamps = ref [] in
  let h =
    Engine.every e ~period:(Time.ms 10) ~jitter:(Time.ms 5) (fun () ->
        stamps := Engine.now e :: !stamps)
  in
  Engine.run e ~until:(Time.ms 200);
  Engine.cancel e h;
  let stamps = List.rev !stamps in
  check_bool "fired repeatedly" true (List.length stamps >= 10);
  (* gaps lie within [period, period + jitter] *)
  let rec gaps_ok = function
    | a :: (b :: _ as rest) ->
        let gap = Time.to_ns (Time.sub b a) in
        gap >= 10_000_000 && gap <= 15_000_001 && gaps_ok rest
    | _ -> true
  in
  check_bool "jitter bounded" true (gaps_ok stamps)

let test_engine_run_until_boundary () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule e ~after:(Time.ms 5) (fun () -> fired := true));
  (* an event exactly at the horizon runs *)
  Engine.run e ~until:(Time.ms 5);
  check_bool "boundary event runs" true !fired

(* --- QCheck properties --- *)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (int_bound 100_000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h ~key:(Time.ns k) ~seq:i k) keys;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (_, _, v) -> drain (v :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare keys
      || List.sort compare popped = List.sort compare keys
         && List.for_all2 ( <= )
              (List.filteri (fun i _ -> i < List.length popped - 1) popped)
              (List.tl popped))

type heap_op =
  | Push of int
  | Drop_min
  | Pop
  | Remove of int
  | Drain

let gen_heap_ops =
  let open QCheck.Gen in
  (* Few distinct keys, so most pops resolve a tie; pushes outweigh
     removals so runs cross the 16/32/64 growth points, and a rare
     drain empties the heap for a refill. *)
  list_size (int_range 0 500)
    (frequency
       [ (130, map (fun k -> Push k) (int_bound 7));
         (35, return Drop_min);
         (15, return Pop);
         (15, map (fun i -> Remove i) (int_bound 1000));
         (1, return Drain) ])

let print_heap_op = function
  | Push k -> Printf.sprintf "Push %d" k
  | Drop_min -> "Drop_min"
  | Pop -> "Pop"
  | Remove i -> Printf.sprintf "Remove %d" i
  | Drain -> "Drain"

(* Replays [ops] on a heap and on a list of [(key, seq, value)] kept
   sorted in pop order (by key, then first inserted first), checking
   every removed element and the minimum after each step. *)
let heap_matches_model ops =
  let compare (k, s, _) (k', s', _) =
    if k <> k' then Int.compare k k' else Int.compare s s'
  in
  let h = Heap.create () in
  let model = ref [] and next = ref 0 and ok = ref true in
  let expect b = if not b then ok := false in
  let same got want =
    match (got, want) with
    | Some (k, s, v), Some (k', s', v') -> Time.to_ns k = k' && s = s' && v = v'
    | None, None -> true
    | _ -> false
  in
  let take () =
    match !model with
    | [] -> None
    | e :: rest ->
        model := rest;
        Some e
  in
  let pop_one () =
    let got = Heap.pop h in
    expect (same got (take ()))
  in
  List.iter
    (fun op ->
      (match op with
      | Push k ->
          incr next;
          Heap.push h ~key:(Time.ns k) ~seq:!next (!next * 10);
          model := List.merge compare [ (k, !next, !next * 10) ] !model
      | Drop_min ->
          if not (Heap.is_empty h) then begin
            expect (same (Heap.peek h) (take ()));
            Heap.drop_min h
          end
      | Pop -> pop_one ()
      | Remove i ->
          let seq = if !next = 0 then 0 else 1 + (i mod !next) in
          let want = List.find_opt (fun (_, s, _) -> s = seq) !model in
          model := List.filter (fun (_, s, _) -> s <> seq) !model;
          expect (same (Heap.remove_seq h ~seq) want)
      | Drain ->
          while not (Heap.is_empty h) do
            pop_one ()
          done);
      expect (Heap.length h = List.length !model);
      match !model with
      | [] -> expect (Heap.is_empty h)
      | (k, _, v) :: _ ->
          expect (Time.to_ns (Heap.min_key h) = k && Heap.min_value h = v))
    ops;
  while not (Heap.is_empty h) do
    pop_one ()
  done;
  !ok && !model = []

let prop_heap_model_fifo =
  QCheck.Test.make ~name:"heap matches sorted-list model (fifo)" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_heap_op) gen_heap_ops)
    heap_matches_model

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int bounded" ~count:500
    QCheck.(pair int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

(* --- Fixed-delay lanes against the heap alone --- *)

type lane_op =
  | Fixed of int  (** [timer ~fixed:true] (the reference: [~fixed:false]) *)
  | Burst of int * int
      (** [n] [Fixed i] at once: a lane's ring wraps and grows *)
  | Every_lane
      (** one [Fixed i] for each of the first [max_lanes] delays: all
          eight lanes exist, and most of them soon idle *)
  | Jittered of int  (** [timer ~fixed:false] a drawn delay *)
  | At of int  (** [schedule_at] a drawn instant, not cancellable *)
  | Cancel of int  (** the [i]-th newest one-shot handle, fired or not *)
  | Every of int * int  (** [every ~period ~jitter] *)
  | Stop of int  (** the [i]-th newest recurrence, stopped or not *)

(* Eleven delays in ns, more than the lane table holds, so some fixed
   delays fall back to the heap. Small and overlapping, so ties are
   common across lanes, the heap and [every] chains. *)
let lane_delays = [| 0; 1; 3; 5; 10; 20; 50; 100; 7; 13; 2 |]

let print_lane_op = function
  | Fixed i -> Printf.sprintf "F%d" lane_delays.(i)
  | Burst (i, n) -> Printf.sprintf "F%dx%d" lane_delays.(i) n
  | Every_lane -> "L"
  | Jittered n -> Printf.sprintf "J%d" n
  | At n -> Printf.sprintf "A%d" n
  | Cancel i -> Printf.sprintf "C%d" i
  | Every (p, j) -> Printf.sprintf "E%d~%d" p j
  | Stop i -> Printf.sprintf "S%d" i

let gen_lane_ops =
  let open QCheck.Gen in
  list_size (int_range 1 150)
    (frequency
       [ (6, map (fun i -> Fixed i) (int_bound (Array.length lane_delays - 1)));
         (1,
          map2
            (fun i n -> Burst (i, n))
            (int_bound (Array.length lane_delays - 1))
            (int_range 2 40));
         (1, return Every_lane);
         (3, map (fun n -> Jittered n) (int_bound 60));
         (1, map (fun n -> At n) (int_bound 60));
         (3, map (fun i -> Cancel i) (int_bound 6));
         (1, map2 (fun p j -> Every (p, j)) (int_range 1 40) (int_bound 10));
         (1, map (fun i -> Stop i) (int_bound 2)) ])

(* Where a cancellable event stands, as the engine's handle must say. *)
type fate = Pending | Fired | Cancelled

(* Runs [ops] and prints what it observed: every firing with its
   instant and the pending count there, every cancel with [is_pending]
   before and after it, every tie the chooser saw, and the executed
   count, pending count and clock at three points. Each firing applies
   the next one or two ops, so events schedule and cancel others as the
   run goes. With [lanes = false] every [Fixed] goes to the heap: the
   reference. A cancel picks any recent handle, so it also hits events
   that fired (their slots long reused) and ones already cancelled.
   Every handle's [is_pending] is checked against its [fate], and a
   cancelled event or stopped chain that runs, or an uncancelled event
   that never runs, prints a [!]. *)
let run_lane_ops ~lanes ~choose ops =
  let e = Engine.create ~seed:3 () in
  let out = Buffer.create 1024 in
  let ops = Array.of_list ops in
  let next = ref 0 and ids = ref 0 in
  let handles = ref [] and chains = ref [] in
  let fates = Hashtbl.create 64 in
  let fate id = Hashtbl.find fates id in
  let mark what =
    Printf.bprintf out "%s@%d/%d " what
      (Time.to_ns (Engine.now e))
      (Engine.pending_events e)
  in
  let nth l i = List.nth_opt l (i mod max 1 (List.length l)) in
  let cancel (id, h) =
    let before = Engine.is_pending e h in
    if before <> (fate id = Pending) then mark "!pending";
    Engine.cancel e h;
    if fate id = Pending then Hashtbl.replace fates id Cancelled;
    if Engine.is_pending e h then mark "!cancelled";
    mark (Printf.sprintf "C%d:%b" id before)
  in
  let rec apply_next n =
    if n > 0 && !next < Array.length ops then begin
      let op = ops.(!next) in
      incr next;
      apply op;
      apply_next (n - 1)
    end
  and one_shot () =
    let id = !ids in
    incr ids;
    Hashtbl.replace fates id Pending;
    ( id,
      fun () ->
        if fate id <> Pending then mark "!ran";
        Hashtbl.replace fates id Fired;
        mark (string_of_int id);
        apply_next (1 + (id land 1)) )
  and cancellable ~fixed ~after =
    let id, f = one_shot () in
    handles := (id, Engine.timer e Footprint.opaque ~fixed ~after f) :: !handles
  and apply = function
    | Fixed i -> cancellable ~fixed:lanes ~after:(Time.ns lane_delays.(i))
    | Burst (i, n) ->
        for _ = 1 to n do
          apply (Fixed i)
        done
    | Every_lane ->
        for i = 0 to 7 do
          apply (Fixed i)
        done
    | Jittered n -> cancellable ~fixed:false ~after:(Time.ns n)
    | At n ->
        let at = Time.add (Engine.now e) (Time.ns n) in
        Engine.schedule_at e ~at (snd (one_shot ()))
    | Cancel i -> Option.iter cancel (nth !handles i)
    | Every (p, j) ->
        let id = !ids in
        incr ids;
        Hashtbl.replace fates id Pending;
        chains :=
          ( id,
            Engine.every e ~period:(Time.ns p) ~jitter:(Time.ns j) (fun () ->
                if fate id <> Pending then mark "!ran";
                mark (Printf.sprintf "c%d" id);
                apply_next 1) )
          :: !chains
    | Stop i -> Option.iter cancel (nth !chains i)
  in
  Engine.set_chooser e
    (Option.map
       (fun choose cands ->
         Buffer.add_char out '[';
         Array.iter (fun c -> Printf.bprintf out "%d " c.Engine.cand_seq) cands;
         Buffer.add_string out "] ";
         choose cands)
       choose);
  let totals what =
    Printf.bprintf out "| %s %d %d %d |" what (Engine.executed_events e)
      (Engine.pending_events e)
      (Time.to_ns (Engine.now e))
  in
  apply_next 4;
  Engine.run e ~until:(Time.ns 150);
  totals "until";
  for _ = 1 to 5 do
    ignore (Engine.step e)
  done;
  totals "step";
  (* No op is left to start a new recurrence once the chains stop. *)
  next := Array.length ops;
  List.iter cancel !chains;
  Engine.run e;
  totals "end";
  List.iter (fun (id, _) -> if fate id = Pending then mark "!lost") !handles;
  Buffer.contents out

let prop_lanes_match_heap =
  QCheck.Test.make ~name:"fixed-delay lanes pop as the heap alone" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_lane_op) gen_lane_ops)
    (fun ops ->
      List.for_all
        (fun choose ->
          let lanes = run_lane_ops ~lanes:true ~choose ops in
          let heap = run_lane_ops ~lanes:false ~choose ops in
          (String.equal lanes heap && not (String.contains lanes '!'))
          || QCheck.Test.fail_reportf "lanes:\n%s\nheap:\n%s" lanes heap)
        [ None;
          Some (fun _ -> 0);
          Some
            (fun cands ->
              Array.fold_left (fun a c -> a + c.Engine.cand_seq) 0 cands
              mod Array.length cands) ])

(* A lane's events count in [pending_events] until they drain, a
   cancelled one included, and a tie with the heap runs in insertion
   order. *)
let test_engine_fixed_lane_basics () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.schedule_fixed e ~after:(Time.ms 2) (fun () -> log := i :: !log))
  done;
  ignore (Engine.schedule e ~after:(Time.ms 2) (fun () -> log := 4 :: !log));
  let h =
    Engine.timer e Footprint.opaque ~fixed:true ~after:(Time.ms 1) (fun () ->
        log := 0 :: !log)
  in
  check_int "lane events pending" 5 (Engine.pending_events e);
  Engine.cancel e h;
  Engine.run e ~until:(Time.ms 1);
  check_int "a cancelled lane event drains where it sits" 1
    (Engine.executed_events e);
  check_int "still pending" 4 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at a tie" [ 1; 2; 3; 4 ]
    (List.rev !log);
  check_int "clock" 2_000_000 (Time.to_ns (Engine.now e))

(* Scheduling allocates nothing beyond the caller's closure, whether
   the event has a footprint, waits on a lane or returns a handle, and
   a pop allocates nothing. Measured after a warm-up round has grown
   the queues and the slot pool to size. *)
let test_schedule_allocation () =
  let fp = Footprint.one (Footprint.switch 1) and f () = () in
  let per_event name schedule =
    let e = Engine.create () in
    let round () =
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (schedule e f))
      done;
      Engine.run e
    in
    round ();
    let before = Gc.minor_words () in
    round ();
    let words = (Gc.minor_words () -. before) /. 1000. in
    check_bool
      (Printf.sprintf "%s: %.2f words per event, budget 0.5" name words)
      true (words < 0.5)
  in
  let after = Time.us 5 in
  per_event "schedule" (fun e f -> Engine.schedule e ~after f);
  per_event "schedule_fixed" (fun e f -> Engine.schedule_fixed e ~after f);
  per_event "schedule_on" (fun e f -> Engine.schedule_on e fp ~after f);
  per_event "schedule_on_at" (fun e f ->
      Engine.schedule_on_at e fp ~at:(Time.add (Engine.now e) after) f);
  per_event "timer" (fun e f -> Engine.timer e fp ~fixed:false ~after f);
  per_event "timer ~fixed" (fun e f -> Engine.timer e fp ~fixed:true ~after f)

(* Schedules [n] events whose closures alone capture fresh payloads,
   tracked by [weak] from index [base]: one on the heap, one on a lane
   and one cancellable, in turn. Not inlined, so no stack slot of the
   caller keeps a payload alive. *)
let[@inline never] schedule_payloads e weak ~base n =
  for i = base to base + n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    let f () = incr payload in
    match i mod 3 with
    | 0 -> Engine.schedule e ~after:(Time.us 1) f
    | 1 -> Engine.schedule_fixed e ~after:(Time.us 2) f
    | _ -> ignore (timer e ~after:(Time.us 1) f)
  done

let pinned weak =
  Gc.full_major ();
  let n = ref 0 in
  for i = 0 to Weak.length weak - 1 do
    if Weak.check weak i then incr n
  done;
  !n

(* An event's slot lets go of its closure when the event runs, on the
   plain pop and on the chooser's, though the engine and its pool stay
   live: a slot that kept a fired closure would pin all it captured
   until the slot was reused. *)
let test_engine_pop_releases () =
  let e = Engine.create () in
  let weak = Weak.create 96 in
  schedule_payloads e weak ~base:0 48;
  check_int "queued payloads pinned" 48 (pinned weak);
  Engine.run e;
  check_int "plain pop releases" 0 (pinned weak);
  Engine.set_chooser e (Some (fun cands -> Array.length cands - 1));
  schedule_payloads e weak ~base:48 48;
  Engine.run e;
  check_int "chosen pop releases" 0 (pinned weak);
  check_int "every event ran" 96 (Engine.executed_events e)

(* The footprint's list model: [touches] as the sorted distinct ids,
   [None] for opaque. *)
module Fp_model = struct
  let touches ids = Some (List.sort_uniq compare ids)

  let independent a b =
    match (a, b) with
    | Some xs, Some ys -> not (List.exists (fun x -> List.mem x ys) xs)
    | _ -> false

  let union a b =
    match (a, b) with
    | Some xs, Some ys -> touches (xs @ ys)
    | _ -> None

  let stride = 1 lsl 20

  let pp = function
    | None -> "opaque"
    | Some ids ->
        "{"
        ^ String.concat ","
            (List.map
               (fun id ->
                 let name =
                   match id / stride with
                   | 1 -> "sw"
                   | 2 -> "host"
                   | 3 -> "ctl"
                   | 4 -> "store"
                   | 5 -> "shard"
                   | 6 -> "trig"
                   | 7 -> "res"
                   | _ -> "?"
                 in
                 Printf.sprintf "%s:%d" name (id mod stride))
               ids)
        ^ "}"
end

(* Ids at the namespaces' edges: each namespace's first and last index,
   the 2^17 boundary a triple packs below, [named] hashes, and a few
   ids outside every namespace. *)
let gen_fp_id =
  let open QCheck.Gen in
  let space =
    oneofl
      [ Footprint.switch; Footprint.host; Footprint.controller; Footprint.store;
        Footprint.trigger ]
  in
  let edge =
    oneofl [ 0; 1; 2; (1 lsl 17) - 1; 1 lsl 17; (1 lsl 20) - 1; 1 lsl 20 ]
  in
  frequency
    [ (4, map2 (fun f i -> f i) space edge);
      (3, map2 (fun f i -> f i) space (int_bound 40));
      (2, map Footprint.named (string_size ~gen:printable (int_range 0 6)));
      (1, oneofl [ 0; 5; (1 lsl 23) - 1; 1 lsl 23; -1; max_int; min_int ]) ]

let gen_fp =
  QCheck.Gen.(
    frequency
      [ (1, return None);
        (8, map (fun ids -> Some ids) (list_size (int_bound 3) gen_fp_id)) ])

let fp_of = function
  | None -> Footprint.opaque
  | Some ids -> Footprint.touches ids

let print_fp = function
  | None -> "opaque"
  | Some ids -> "[" ^ String.concat ";" (List.map string_of_int ids) ^ "]"

let show fp = Format.asprintf "%a" Footprint.pp fp

(* Up to two distinct in-namespace ids, every answer is the model's;
   beyond that [independent] may only err towards dependence, and [pp]
   is the model's or a summary's. [one] and [two] are [touches]. *)
let prop_footprint_model =
  QCheck.Test.make ~name:"footprint agrees with the list model" ~count:2000
    (QCheck.make ~print:QCheck.Print.(pair print_fp print_fp)
       QCheck.Gen.(pair gen_fp gen_fp))
    (fun (a, b) ->
      let exact = function
        | None -> true
        | Some ids ->
            let ids = List.sort_uniq compare ids in
            List.length ids <= 2
            && List.for_all (fun id -> id >= 0 && id < 1 lsl 23) ids
      in
      let ma = Option.map (List.sort_uniq compare) a
      and mb = Option.map (List.sort_uniq compare) b in
      let fa = fp_of a and fb = fp_of b in
      let agrees m f =
        if exact m then show f = Fp_model.pp m
        else
          show f = Fp_model.pp m
          || String.length (show f) >= 2 && String.contains (show f) '*'
      in
      let dep_ok got want =
        got = want || ((not got) && not (exact ma && exact mb))
      in
      let union = Fp_model.union ma mb in
      let lists =
        match a with
        | Some [ x ] -> Footprint.one x = fa
        | Some [ x; y ] -> Footprint.two x y = fa
        | _ -> true
      in
      lists && agrees ma fa && agrees mb fb
      && Footprint.is_opaque fa = (a = None)
      && dep_ok (Footprint.independent fa fb) (Fp_model.independent ma mb)
      && Footprint.independent fa fb = Footprint.independent fb fa
      && agrees union (Footprint.union fa fb)
      && (exact union = false
         || show (Footprint.union fa fb) = Fp_model.pp union)
      && List.for_all
           (fun c ->
             let mc = Option.map (List.sort_uniq compare) c in
             let got = Footprint.independent (Footprint.union fa fb) (fp_of c)
             and want = Fp_model.independent union mc in
             got = want || not got)
           [ a; b; Some [ Footprint.switch 1 ] ])

let suite =
  [ ("time units", `Quick, test_time_units);
    ("time arithmetic", `Quick, test_time_arith);
    ("time pretty-printing", `Quick, test_time_pp);
    ("rng golden stream", `Quick, test_rng_golden);
    ("rng draws allocate nothing", `Quick, test_rng_draws_allocate_nothing);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng exponential mean", `Quick, test_rng_exponential_mean);
    ("rng bernoulli", `Quick, test_rng_bernoulli);
    ("rng sampling", `Quick, test_rng_sample_without_replacement);
    ("rng choice and shuffle", `Quick, test_rng_choice_shuffle);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo on ties", `Quick, test_heap_fifo_ties);
        ("engine ordering", `Quick, test_engine_ordering);
    ("engine cancel", `Quick, test_engine_cancel);
    ("engine cancel releases the closure", `Quick, test_engine_cancel_releases);
    ("engine run until", `Quick, test_engine_until);
    ("engine every", `Quick, test_engine_every);
    ("engine nested schedule", `Quick, test_engine_nested_schedule);
    ("engine rejects past", `Quick, test_engine_past_rejected);
    ("engine every with jitter", `Quick, test_engine_every_jitter);
    ("engine horizon boundary", `Quick, test_engine_run_until_boundary);
    ("engine fixed-delay lanes", `Quick, test_engine_fixed_lane_basics);
    ("engine scheduling allocation budget", `Quick, test_schedule_allocation);
    ("engine pop releases closures", `Quick, test_engine_pop_releases);
    QCheck_alcotest.to_alcotest prop_footprint_model;
    QCheck_alcotest.to_alcotest prop_lanes_match_heap;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_model_fifo;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds ]
