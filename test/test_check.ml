(* The fuzz harness itself: generator determinism, shrinker soundness,
   oracle plumbing, and the process-wide-counter hygiene the harness
   depends on (every fuzz case must see clean per-run deltas whatever
   ran before it in the process). *)

open Jury_check
module Validator = Jury.Validator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- generator --- *)

let test_generate_deterministic () =
  let a = Case.generate ~seed:7 and b = Case.generate ~seed:7 in
  check_bool "same seed, same case" true (Case.equal a b);
  let c = Case.generate ~seed:8 in
  check_bool "different seed, different case" false (Case.equal a c)

let test_generate_valid () =
  (* Every generated case must denote a buildable configuration: the
     facade validates all knobs, and the topology/workload combination
     must satisfy the builders' floors. *)
  for seed = 0 to 199 do
    let c = Case.generate ~seed in
    ignore (Case.jury_config c);
    check_bool "ring has >= 3 switches" true
      (c.Case.topo <> Case.Ring || c.Case.switches >= 3);
    check_bool "blast has 2 hosts on a switch" true
      (c.Case.workload <> Case.Blast || c.Case.hosts_per_switch >= 2);
    let hosts =
      if c.Case.topo = Case.Single then max 2 c.Case.switches
      else c.Case.switches * c.Case.hosts_per_switch
    in
    check_bool "mix/connections have >= 2 hosts" true
      (match c.Case.workload with
      | Case.Mix | Case.Connections -> hosts >= 2
      | Case.Joins | Case.Blast -> true);
    check_bool "k < nodes" true (c.Case.k < c.Case.nodes)
  done

let test_gen_primitives () =
  let rng = Jury_sim.Rng.create 1 in
  for _ = 1 to 100 do
    let v = Gen.int_in 3 9 rng in
    check_bool "int_in bounds" true (v >= 3 && v <= 9)
  done;
  let xs = Gen.list_of ~len:(Gen.return 5) (Gen.int_in 0 10) rng in
  check_int "list_of length" 5 (List.length xs)

(* --- shrinker --- *)

let test_candidates_shrink () =
  for seed = 0 to 49 do
    let c = Case.generate ~seed in
    List.iter
      (fun c' ->
        check_bool "candidate is strictly smaller" true
          (Shrink.size c' < Shrink.size c);
        (* and still buildable *)
        ignore (Case.jury_config c'))
      (Shrink.candidates c)
  done

let test_minimise_artificial () =
  (* An oracle that fails whenever the case still has faults or more
     than 6 triggers; the shrinker must reach the floor of both axes
     without executing the system (the fake oracle never forces the
     base outcome). *)
  let fake =
    { Oracle.name = "fake"; family = "fake"; doc = "test fake";
      check =
        (fun ctx ->
          let c = ctx.Oracle.case in
          if c.Case.triggers > 6 || c.Case.faults <> [] then
            Oracle.Fail "too big"
          else Oracle.Pass) }
  in
  let case = { (Case.generate ~seed:3) with Case.triggers = 40 } in
  let failures = Oracle.check_case ~oracles:[ fake ] case in
  check_bool "starts failing" true (failures <> []);
  let r = Shrink.minimise ~oracles:[ fake ] case failures in
  check_bool "minimal still fails" true (r.Shrink.failures <> []);
  check_bool "triggers at the boundary" true (r.Shrink.minimal.Case.triggers = 7);
  check_int "faults all dropped" 0 (List.length r.Shrink.minimal.Case.faults);
  check_bool "size decreased" true (Shrink.size r.Shrink.minimal < Shrink.size case)

let test_minimise_rejects_crashes () =
  (* A candidate that crashes the oracle must not be accepted as a
     smaller witness when the original failure was a genuine Fail. *)
  let fake =
    { Oracle.name = "crashy"; family = "fake"; doc = "test fake";
      check =
        (fun ctx ->
          let c = ctx.Oracle.case in
          if c.Case.triggers <= 10 then failwith "boom"
          else if c.Case.triggers > 20 then Oracle.Fail "too many triggers"
          else Oracle.Pass) }
  in
  let case = { (Case.generate ~seed:5) with Case.triggers = 40 } in
  let failures = Oracle.check_case ~oracles:[ fake ] case in
  let r = Shrink.minimise ~oracles:[ fake ] case failures in
  check_bool "stops above the crash zone" true
    (r.Shrink.minimal.Case.triggers > 20)

(* --- end-to-end --- *)

let tiny_case =
  { Case.case_seed = 1234;
    topo = Case.Linear;
    switches = 2;
    hosts_per_switch = 1;
    nodes = 3;
    k = 1;
    odl = false;
    workload = Case.Mix;
    rate = 200.;
    duration_ms = 150;
    faults = [];
    drop = 0.02;
    duplicate = 0.;
    jitter_us = 0.;
    retries = 1;
    degraded_quorum = None;
    shards = 2;
    max_inflight = None;
    batch_us = Some 200;
    triggers = 8 }

let test_execute_replays () =
  let a = Run.execute tiny_case and b = Run.execute tiny_case in
  (match Run.diff_fingerprint a.Run.fp b.Run.fp with
  | None -> ()
  | Some d -> Alcotest.failf "replay diverged: %s" d);
  check_bool "worked at all" true (Run.count a Decided > 0)

let test_oracles_pass_tiny () =
  match Registry.check_case tiny_case with
  | [] -> ()
  | vs ->
      Alcotest.failf "tiny case violates: %s"
        (String.concat "; "
           (List.map
              (fun ((o : Oracle.t), m) -> o.Oracle.name ^ ": " ^ m)
              vs))

let test_backtoback_deployments_identical () =
  (* Back-to-back full Deployment.install runs (what every fuzz case
     does) must reproduce identical outcomes — i.e. no global mutable
     state leaks from one installed deployment into the next. *)
  let a = Run.execute tiny_case in
  let b = Run.execute tiny_case in
  check_bool "identical outcomes" true (a = b);
  check_bool "retransmission exercised and reproduced" true
    (a.Run.totals.Jury.Channel.retransmitted
     = b.Run.totals.Jury.Channel.retransmitted)

let test_backtoback_overload_identical () =
  (* Same hygiene for overload shedding, driven on bare validators
     (full-system cases rarely hit the in-flight bound). *)
  let overload_run () =
    let engine = Jury_sim.Engine.create ~seed:9 () in
    let cfg =
      Jury.Jury_config.validator
        ~ack_peers_of:(fun _ -> [])
        (Jury.Jury_config.make ~k:2 ~max_inflight:2 ())
    in
    let v = Validator.create engine cfg in
    for serial = 0 to 9 do
      Validator.register_external v
        ~taint:(Jury_controller.Types.Taint.external_trigger ~primary:0 ~serial)
        ~at:(Jury_sim.Engine.now engine) ~primary:0 ~secondaries:[ 1; 2 ]
    done;
    Validator.flush v;
    Validator.count v Overload
  in
  let n1 = overload_run () in
  let n2 = overload_run () in
  check_bool "overload exercised" true (n1 > 0);
  check_int "identical overload counts" n1 n2

(* The shared selector table behind `check --oracle` and `mc --oracle`:
   a family resolves to its oracles, an exact name to a singleton, and
   anything else to an error that lists every valid choice. *)
let test_oracle_resolve () =
  (match Jury_check.Registry.resolve "sharding" with
  | Ok os ->
      check_int "family resolves to its oracles"
        (List.length (Jury_check.Registry.by_family "sharding"))
        (List.length os)
  | Error e -> Alcotest.fail e);
  (match Jury_check.Registry.names () with
  | [] -> Alcotest.fail "no oracle names"
  | name :: _ -> (
      match Jury_check.Registry.resolve name with
      | Ok [ o ] -> Alcotest.(check string) "exact name" name o.Jury_check.Oracle.name
      | Ok _ -> Alcotest.fail "name resolved to several oracles"
      | Error e -> Alcotest.fail e));
  match Jury_check.Registry.resolve "no-such-oracle" with
  | Ok _ -> Alcotest.fail "unknown selector accepted"
  | Error e ->
      let contains needle =
        let nh = String.length e and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub e i nn = needle || go (i + 1)) in
        go 0
      in
      check_bool "error names the selector" true (contains "no-such-oracle");
      List.iter
        (fun f -> check_bool ("error lists family " ^ f) true (contains f))
        (Jury_check.Registry.families ());
      List.iter
        (fun n -> check_bool ("error lists oracle " ^ n) true (contains n))
        (Jury_check.Registry.names ())

let suite =
  [ Alcotest.test_case "generate is deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "oracle selector resolution" `Quick test_oracle_resolve;
    Alcotest.test_case "generated cases are buildable" `Quick
      test_generate_valid;
    Alcotest.test_case "generator primitives" `Quick test_gen_primitives;
    Alcotest.test_case "candidates strictly shrink and stay valid" `Quick
      test_candidates_shrink;
    Alcotest.test_case "minimise reaches the failure boundary" `Quick
      test_minimise_artificial;
    Alcotest.test_case "minimise rejects crash-only candidates" `Quick
      test_minimise_rejects_crashes;
    Alcotest.test_case "execute replays bit-identically" `Slow
      test_execute_replays;
    Alcotest.test_case "oracle battery passes a known-good case" `Slow
      test_oracles_pass_tiny;
    Alcotest.test_case "back-to-back deployments identical" `Slow
      test_backtoback_deployments_identical;
    Alcotest.test_case "back-to-back overload runs identical" `Quick
      test_backtoback_overload_identical ]
