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
  let h = Heap.create ~dummy:0 () in
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
  let h = Heap.create ~dummy:0 () in
  for i = 1 to 10 do
    Heap.push h ~key:(Time.ms 1) ~seq:i i
  done;
  for i = 1 to 10 do
    match Heap.pop h with
    | Some (_, _, v) -> check_int "fifo order on ties" i v
    | None -> Alcotest.fail "heap empty early"
  done

(* Removed payloads must become collectable even while the heap stays
   live: a vacated slot must not pin them, whether it was freed by
   [pop], [drop_min] or [remove_seq]. *)
let test_heap_pop_releases () =
  let dummy = ref (-1) in
  let h = Heap.create ~dummy () in
  let weaks = Weak.create 64 in
  for i = 0 to 63 do
    let payload = ref i in
    Weak.set weaks i (Some payload);
    Heap.push h ~key:(Time.us i) ~seq:i payload
  done;
  (* Drain a quarter each way, then churn with fresh payloads so the
     heap keeps a non-trivial live region the whole time. *)
  for _ = 1 to 16 do
    ignore (Heap.pop h)
  done;
  for _ = 1 to 16 do
    Heap.drop_min h
  done;
  for i = 64 to 95 do
    Heap.push h ~key:(Time.us i) ~seq:i (ref i)
  done;
  for seq = 40 to 47 do
    check_bool "remove_seq finds it" true (Heap.remove_seq h ~seq <> None)
  done;
  for _ = 1 to 8 do
    Heap.drop_min h
  done;
  Gc.full_major ();
  (* Tracked payloads 0..47 were removed; 48..63 are still queued and
     must stay pinned — exactly 16 weak refs survive. *)
  let pinned = ref 0 in
  for i = 0 to 63 do
    if Weak.check weaks i then incr pinned
  done;
  check_int "only queued payloads pinned" 16 !pinned;
  check_int "live region intact" 48 (Heap.length h);
  check_int "minimum is the oldest queued" 48 !(Heap.min_value h);
  (* Drain to empty: nothing may stay pinned. *)
  while Heap.pop h <> None do
    ()
  done;
  Gc.full_major ();
  let pinned = ref 0 in
  for i = 0 to 63 do
    if Weak.check weaks i then incr pinned
  done;
  check_int "empty heap pins nothing" 0 !pinned

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

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:(Time.ms 1) (fun () -> fired := true) in
  check_bool "pending" true (Engine.is_pending h);
  Engine.cancel h;
  check_bool "not pending" false (Engine.is_pending h);
  Engine.run e;
  check_bool "cancelled never fires" false !fired

(* Schedules an event whose closure alone captures a fresh payload,
   tracked by [weak]; not inlined, so no stack slot of the caller keeps
   the payload alive. *)
let[@inline never] schedule_capturing e weak =
  let payload = ref 0 in
  Weak.set weak 0 (Some payload);
  Engine.schedule e ~after:(Time.ms 5) (fun () -> incr payload)

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
  Engine.cancel h;
  Gc.full_major ();
  check_bool "not pending" false (Engine.is_pending h);
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
  Engine.cancel h;
  Gc.full_major ();
  check_bool "every not pending" false (Engine.is_pending h);
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
  Engine.cancel h;
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
  Engine.cancel h;
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
      let h = Heap.create ~dummy:0 () in
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
  let h = Heap.create ~dummy:(-1) () in
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
  | Fixed of int  (** [schedule_fixed] (the reference: [schedule]) *)
  | Burst of int * int
      (** [n] [Fixed i] at once: a lane's ring wraps and grows *)
  | Jittered of int  (** [schedule ~after] a drawn delay *)
  | At of int  (** [schedule_at] a drawn instant *)
  | Cancel of int  (** the [i]-th newest one-shot handle *)
  | Every of int * int  (** [every ~period ~jitter] *)
  | Stop of int  (** the [i]-th newest recurrence *)

(* Eleven delays in ns, more than the lane table holds, so some fixed
   delays fall back to the heap. Small and overlapping, so ties are
   common across lanes, the heap and [every] chains. *)
let lane_delays = [| 0; 1; 3; 5; 10; 20; 50; 100; 7; 13; 2 |]

let print_lane_op = function
  | Fixed i -> Printf.sprintf "F%d" lane_delays.(i)
  | Burst (i, n) -> Printf.sprintf "F%dx%d" lane_delays.(i) n
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
         (3, map (fun n -> Jittered n) (int_bound 60));
         (1, map (fun n -> At n) (int_bound 60));
         (2, map (fun i -> Cancel i) (int_bound 6));
         (1, map2 (fun p j -> Every (p, j)) (int_range 1 40) (int_bound 10));
         (1, map (fun i -> Stop i) (int_bound 2)) ])

(* Runs [ops] and prints what it observed: every firing with its
   instant and the pending count there, every tie the chooser saw,
   and the executed count, pending count and clock at three points.
   Each firing applies the next one or two ops, so events schedule
   and cancel others as the run goes. With [lanes = false] every
   [Fixed] goes through [schedule]: the heap-only reference. *)
let run_lane_ops ~lanes ~choose ops =
  let e = Engine.create ~seed:3 () in
  let out = Buffer.create 1024 in
  let ops = Array.of_list ops in
  let next = ref 0 and ids = ref 0 in
  let handles = ref [] and chains = ref [] in
  let mark what =
    Printf.bprintf out "%s@%d/%d " what
      (Time.to_ns (Engine.now e))
      (Engine.pending_events e)
  in
  let nth l i = List.nth_opt l (i mod max 1 (List.length l)) in
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
    fun () ->
      mark (string_of_int id);
      apply_next (1 + (id land 1))
  and apply = function
    | Fixed i ->
        let after = Time.ns lane_delays.(i) in
        let h =
          if lanes then Engine.schedule_fixed e ~after (one_shot ())
          else Engine.schedule e ~after (one_shot ())
        in
        handles := h :: !handles
    | Burst (i, n) ->
        for _ = 1 to n do
          apply (Fixed i)
        done
    | Jittered n ->
        handles := Engine.schedule e ~after:(Time.ns n) (one_shot ()) :: !handles
    | At n ->
        let at = Time.add (Engine.now e) (Time.ns n) in
        handles := Engine.schedule_at e ~at (one_shot ()) :: !handles
    | Cancel i -> Option.iter Engine.cancel (nth !handles i)
    | Every (p, j) ->
        let id = !ids in
        incr ids;
        chains :=
          Engine.every e ~period:(Time.ns p) ~jitter:(Time.ns j) (fun () ->
              mark (Printf.sprintf "c%d" id);
              apply_next 1)
          :: !chains
    | Stop i -> Option.iter Engine.cancel (nth !chains i)
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
  List.iter Engine.cancel !chains;
  Engine.run e;
  totals "end";
  Buffer.contents out

let prop_lanes_match_heap =
  QCheck.Test.make ~name:"fixed-delay lanes pop as the heap alone" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_lane_op) gen_lane_ops)
    (fun ops ->
      List.for_all
        (fun choose ->
          let lanes = run_lane_ops ~lanes:true ~choose ops in
          let heap = run_lane_ops ~lanes:false ~choose ops in
          String.equal lanes heap
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
  let h = Engine.schedule_fixed e ~after:(Time.ms 1) (fun () -> log := 0 :: !log) in
  check_int "lane events pending" 5 (Engine.pending_events e);
  Engine.cancel h;
  Engine.run e ~until:(Time.ms 1);
  check_int "a cancelled lane event drains where it sits" 1
    (Engine.executed_events e);
  check_int "still pending" 4 (Engine.pending_events e);
  Engine.run e;
  Alcotest.(check (list int)) "insertion order at a tie" [ 1; 2; 3; 4 ]
    (List.rev !log);
  check_int "clock" 2_000_000 (Time.to_ns (Engine.now e))

(* A lane adds nothing to what scheduling allocates: the event's
   four-word record, plus the two-word [Some] a caller's [~footprint]
   is passed in. A pop allocates nothing. Measured after a warm-up
   round has grown both queues to size. *)
let test_schedule_allocation () =
  let fp = Footprint.touches [ Footprint.switch 1 ] and f () = () in
  let per_event name ~budget schedule =
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
      (Printf.sprintf "%s: %.2f words per event, budget %g" name words budget)
      true (words < budget)
  in
  let after = Time.us 5 in
  per_event "schedule" ~budget:4.5 (fun e f -> Engine.schedule e ~after f);
  per_event "schedule_fixed" ~budget:4.5 (fun e f ->
      Engine.schedule_fixed e ~after f);
  per_event "schedule ~footprint" ~budget:6.5 (fun e f ->
      Engine.schedule e ~footprint:fp ~after f);
  per_event "schedule_fixed ~footprint" ~budget:6.5 (fun e f ->
      Engine.schedule_fixed e ~footprint:fp ~after f)

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
    ("heap pop releases payloads", `Quick, test_heap_pop_releases);
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
    QCheck_alcotest.to_alcotest prop_lanes_match_heap;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_model_fifo;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds ]
