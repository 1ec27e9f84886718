(* Tests for the schedule explorer: the engine's tie-break hook, choice
   traces, footprint algebra, the DFS + pruning arithmetic on synthetic
   engines, and end-to-end exploration of the demo deployment. *)

open Jury_sim
module Explorer = Jury_mc.Explorer
module Trace = Jury_mc.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- tie-breaker regression ----------------------------------------

   N equal-time events run in insertion order by default, and in the
   exact reverse order under a chooser that always takes the newest
   candidate — pinning that the chooser is the only source of ordering
   freedom. *)

let order_with ?chooser () =
  let engine = Engine.create () in
  Engine.set_chooser engine chooser;
  let order = ref [] in
  for i = 1 to 8 do
    ignore
      (Engine.schedule engine ~after:(Time.ms 1) (fun () ->
           order := i :: !order))
  done;
  Engine.run engine;
  List.rev !order

let test_engine_fifo_ties () =
  Alcotest.(check (list int))
    "default: insertion order" [ 1; 2; 3; 4; 5; 6; 7; 8 ] (order_with ())

let test_engine_lifo_ties () =
  Alcotest.(check (list int))
    "lifo: exact reverse" [ 8; 7; 6; 5; 4; 3; 2; 1 ]
    (order_with ~chooser:(fun cands -> Array.length cands - 1) ())

(* A chooser sees every live tied candidate and its declared footprint,
   and its index choice dictates execution order. *)
let test_chooser_sees_candidates () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 0 to 2 do
    Engine.schedule_on engine
      (Footprint.touches [ Footprint.switch i ])
      ~after:(Time.ms 1)
      (fun () -> order := i :: !order)
  done;
  let seen = ref [] in
  Engine.set_chooser engine
    (Some
       (fun cands ->
         seen := Array.length cands :: !seen;
         Array.length cands - 1));
  Engine.run engine;
  Alcotest.(check (list int)) "always picks last" [ 2; 1; 0 ] (List.rev !order);
  (* 3 tied, then 2, then a lone event (no consultation) *)
  Alcotest.(check (list int)) "candidate counts" [ 3; 2 ] (List.rev !seen)

(* --- traces -------------------------------------------------------- *)

let test_trace_roundtrip () =
  let t = Trace.of_list [ 0; 2; 1 ] in
  check_string "print" "0.2.1" (Trace.to_string t);
  (match Trace.of_string "0.2.1" with
  | Ok t' -> check_bool "parse inverse" true (Trace.equal t t')
  | Error e -> Alcotest.fail e);
  check_string "empty prints -" "-" (Trace.to_string Trace.empty);
  (match Trace.of_string "-" with
  | Ok t' -> check_bool "dash is empty" true (Trace.is_empty t')
  | Error e -> Alcotest.fail e);
  (match Trace.of_string "" with
  | Ok t' -> check_bool "blank is empty" true (Trace.is_empty t')
  | Error e -> Alcotest.fail e);
  (match Trace.of_string "1.x.2" with
  | Ok _ -> Alcotest.fail "junk accepted"
  | Error e ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      check_bool "error names input" true (contains e "1.x.2"));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Trace.of_list: negative choice") (fun () ->
      ignore (Trace.of_list [ 1; -1 ]))

(* --- footprints ---------------------------------------------------- *)

let test_footprint_algebra () =
  let a = Footprint.touches [ Footprint.switch 1 ]
  and b = Footprint.touches [ Footprint.switch 2 ]
  and c = Footprint.touches [ Footprint.switch 1; Footprint.controller 0 ] in
  check_bool "disjoint commute" true (Footprint.independent a b);
  check_bool "shared resource conflicts" false (Footprint.independent a c);
  check_bool "opaque conflicts with declared" false
    (Footprint.independent Footprint.opaque a);
  check_bool "opaque conflicts with opaque" false
    (Footprint.independent Footprint.opaque Footprint.opaque);
  check_bool "empty commutes" true (Footprint.independent (Footprint.touches []) a);
  check_bool "union keeps both" false
    (Footprint.independent (Footprint.union a b) b);
  check_bool "union with opaque absorbs" true
    (Footprint.is_opaque (Footprint.union a Footprint.opaque));
  (* namespaces never collide *)
  check_bool "switch vs controller" true
    (Footprint.independent
       (Footprint.touches [ Footprint.switch 1 ])
       (Footprint.touches [ Footprint.controller 1 ]));
  (* the shared per-trigger convention: same taint, same resource *)
  let trigger serial =
    Footprint.touches
      [ Footprint.trigger
          (Jury_store.Taint.hash
             (Jury_store.Taint.external_trigger ~primary:0 ~serial)) ]
  in
  check_bool "same taint conflicts" false
    (Footprint.independent (trigger 0) (trigger 0));
  check_bool "distinct taints commute" true
    (Footprint.independent (trigger 0) (trigger 1));
  (* short lists skip the sort but come out sorted and distinct *)
  List.iter
    (fun ids ->
      let expected =
        "{"
        ^ String.concat ","
            (List.map (Printf.sprintf "sw:%d") (List.sort_uniq compare ids))
        ^ "}"
      in
      Alcotest.(check string) expected expected
        (Format.asprintf "%a" Footprint.pp
           (Footprint.touches (List.map Footprint.switch ids))))
    [ []; [ 5 ]; [ 3; 9 ]; [ 9; 3 ]; [ 4; 4 ]; [ 7; 1; 7; 2 ] ]

(* --- schedule-count arithmetic ------------------------------------

   Drive the DFS core over a synthetic engine holding one timestamp
   tie, and pin the explored/pruned counts: a commuting pair collapses
   to one schedule, a dependent pair needs both orders, a dependent
   triple needs all 3! = 6, and pruning is exact for a mixed triple. *)

let tied_run footprints record trace =
  let engine = Engine.create () in
  let order = ref [] in
  List.iteri
    (fun i fp ->
      Engine.schedule_on engine fp ~after:(Time.ms 1) (fun () ->
          order := i :: !order))
    footprints;
  Engine.set_chooser engine (Some (Explorer.chooser ~record trace));
  Engine.run engine;
  List.rev !order

let explore_tied ?(prune = true) footprints =
  Explorer.explore_with ~prune ~max_schedules:100
    ~run:(tied_run footprints)
    ~check:(fun _ _ _ -> None)
    ()

let sw i = Footprint.touches [ Footprint.switch i ]

let test_commuting_pair_one_schedule () =
  let _, stats, _ = explore_tied [ sw 1; sw 2 ] in
  check_int "explored" 1 stats.Explorer.explored;
  check_int "pruned" 1 stats.Explorer.pruned;
  check_int "branched" 0 stats.Explorer.branched;
  check_bool "complete" false stats.Explorer.truncated

let test_dependent_pair_two_schedules () =
  let _, stats, _ = explore_tied [ sw 1; sw 1 ] in
  check_int "explored" 2 stats.Explorer.explored;
  check_int "pruned" 0 stats.Explorer.pruned;
  check_int "branched" 1 stats.Explorer.branched

let test_opaque_pair_two_schedules () =
  let _, stats, _ = explore_tied [ Footprint.opaque; Footprint.opaque ] in
  check_int "undeclared events explored exhaustively" 2
    stats.Explorer.explored

let test_dependent_triple_factorial () =
  let _, stats, _ = explore_tied [ sw 1; sw 1; sw 1 ] in
  check_int "3! schedules" 6 stats.Explorer.explored;
  check_int "pruned" 0 stats.Explorer.pruned

let test_independent_triple_one_schedule () =
  let _, stats, _ = explore_tied [ sw 1; sw 2; sw 3 ] in
  check_int "explored" 1 stats.Explorer.explored;
  (* two alternatives pruned at the three-way tie, one more at the
     two-way tie left after the first event runs *)
  check_int "pruned" 3 stats.Explorer.pruned

let test_naive_pair_counts () =
  let _, stats, _ = explore_tied ~prune:false [ sw 1; sw 2 ] in
  check_int "naive explores both orders" 2 stats.Explorer.explored;
  check_int "nothing pruned" 0 stats.Explorer.pruned

(* The checker sees genuinely different execution orders on the
   branches the explorer takes. *)
let test_divergence_detected () =
  let _, _, divs =
    Explorer.explore_with ~max_schedules:100
      ~run:(tied_run [ sw 1; sw 1 ])
      ~check:(fun reference trace outcome ->
        if outcome = reference then None
        else
          Some
            { Explorer.div_trace = trace;
              div_diff = Some "orders differ";
              div_failures = [] })
      ()
  in
  check_int "the swapped order diverges" 1 (List.length divs);
  match divs with
  | [ d ] -> check_string "at trace 1" "1" (Trace.to_string d.Explorer.div_trace)
  | _ -> Alcotest.fail "expected exactly one divergence"

(* --- end-to-end on the demo deployment ---------------------------- *)

let demo = Explorer.demo_case ~switches:1 ~triggers:1 ~nodes:2 ()

(* Replaying the same trace twice is bit-identical (the determinism
   every cross-schedule comparison rests on). *)
let test_replay_deterministic () =
  let exec = Explorer.executor (Trace.of_list [ 1 ]) in
  let a = exec demo and b = exec demo in
  check_bool "same trace, same fingerprint" true
    (Jury_check.Run.fingerprint_equal a.Jury_check.Run.fp
       b.Jury_check.Run.fp);
  (* and a different schedule really is a different execution: serials
     or timings may shift even though the schedule-blind residue must
     not *)
  let fifo = Explorer.executor Trace.empty demo in
  check_bool "projection agrees across schedules" true
    (Jury_check.Run.diff_schedule_blind fifo.Jury_check.Run.fp
       a.Jury_check.Run.fp
    = None)

let test_demo_exploration_clean () =
  let r =
    Explorer.explore ~max_schedules:3000
      ~oracles:(Jury_check.Registry.by_family "conservation") demo
  in
  let s = r.Explorer.rep_stats in
  check_bool "fully enumerated" false s.Explorer.truncated;
  check_bool "more than one schedule" true (s.Explorer.explored > 1);
  check_bool "pruning fired" true (s.Explorer.pruned > 0);
  check_int "no divergences" 0 (List.length r.Explorer.rep_divergences);
  check_bool "reference decided triggers" true
    (Jury_check.Run.count r.Explorer.rep_reference Decided > 0);
  (* the acceptance ratio: naive enumeration of the same case needs at
     least twice the schedules pruning needs (it caps out while the
     pruned run completes) *)
  let naive =
    Explorer.explore ~prune:false
      ~max_schedules:(2 * s.Explorer.explored)
      ~oracles:[] demo
  in
  check_bool "naive needs >= 2x schedules" true
    naive.Explorer.rep_stats.Explorer.truncated

let suite =
  [ ("engine fifo ties", `Quick, test_engine_fifo_ties);
    ("engine lifo ties", `Quick, test_engine_lifo_ties);
    ("chooser sees candidates", `Quick, test_chooser_sees_candidates);
    ("trace roundtrip", `Quick, test_trace_roundtrip);
    ("footprint algebra", `Quick, test_footprint_algebra);
    ("commuting pair -> 1 schedule", `Quick, test_commuting_pair_one_schedule);
    ("dependent pair -> 2 schedules", `Quick,
     test_dependent_pair_two_schedules);
    ("opaque pair -> 2 schedules", `Quick, test_opaque_pair_two_schedules);
    ("dependent triple -> 6 schedules", `Quick,
     test_dependent_triple_factorial);
    ("independent triple -> 1 schedule", `Quick,
     test_independent_triple_one_schedule);
    ("naive pair -> 2 schedules", `Quick, test_naive_pair_counts);
    ("divergence detected", `Quick, test_divergence_detected);
    ("replay determinism", `Quick, test_replay_deterministic);
    ("demo exploration", `Slow, test_demo_exploration_clean) ]
