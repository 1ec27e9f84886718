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
   sorted in pop order by [compare], checking every removed element
   and the minimum after each step. *)
let heap_matches_model ~tie ~compare ops =
  let h = Heap.create ~tie ~dummy:(-1) () in
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

let prop_heap_model tie_name ~tie ~compare =
  QCheck.Test.make
    ~name:(Printf.sprintf "heap matches sorted-list model (%s)" tie_name)
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_heap_op) gen_heap_ops)
    (heap_matches_model ~tie ~compare)

let prop_heap_model_fifo =
  prop_heap_model "fifo" ~tie:Heap.fifo ~compare:(fun (k, s, _) (k', s', _) ->
      if k <> k' then Int.compare k k' else Int.compare s s')

let prop_heap_model_lifo =
  prop_heap_model "lifo" ~tie:Heap.lifo ~compare:(fun (k, s, _) (k', s', _) ->
      if k <> k' then Int.compare k k' else Int.compare s' s)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int bounded" ~count:500
    QCheck.(pair int (int_range 1 10_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let suite =
  [ ("time units", `Quick, test_time_units);
    ("time arithmetic", `Quick, test_time_arith);
    ("time pretty-printing", `Quick, test_time_pp);
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
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_model_fifo;
    QCheck_alcotest.to_alcotest prop_heap_model_lifo;
    QCheck_alcotest.to_alcotest prop_rng_int_bounds ]
