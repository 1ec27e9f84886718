(* The fuzzing loop's contract: everything is a pure function of
   (seed, budget). Corpus ids, lineages and feature maps must be
   reproducible run over run; every corpus entry must replay
   bit-identically from its lineage alone; and guided mutation must
   strictly beat an equal budget of blind cases on coverage, because
   the mutators own the stateful fault vocabulary. Finally, blind mode
   itself is pinned by digest so `check` fingerprints can never drift
   under fuzzing changes. *)

module Case = Jury_check.Case
module Coverage = Jury_check.Coverage
module Corpus = Jury_check.Corpus
module Mutate = Jury_check.Mutate
module Fuzz = Jury_check.Fuzz
module Run = Jury_check.Run
module Rng = Jury_sim.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* -- determinism: same (seed, budget) twice -> same corpus -- *)

let test_deterministic () =
  let go () = Fuzz.run ~budget:16 ~seed:7 () in
  let a = go () and b = go () in
  check_int "same executed" a.Fuzz.executed b.Fuzz.executed;
  check_int "same blind baseline" a.Fuzz.blind_features b.Fuzz.blind_features;
  let ids s =
    List.map (fun (e : Corpus.entry) -> e.Corpus.id) (Corpus.entries s.Fuzz.corpus)
  in
  Alcotest.(check (list string)) "same corpus ids" (ids a) (ids b);
  let lineages s = List.map Corpus.lineage (Corpus.entries s.Fuzz.corpus) in
  Alcotest.(check (list string)) "same lineages" (lineages a) (lineages b);
  check_bool "same feature map" true
    (Coverage.equal (Corpus.features a.Fuzz.corpus) (Corpus.features b.Fuzz.corpus))

(* -- replay: every corpus entry rebuilds bit-identically from
   base_seed + mutation trace -- *)

let test_replay_bit_identical () =
  let s = Fuzz.run ~budget:16 ~seed:11 () in
  check_bool "corpus nonempty" true (Corpus.size s.Fuzz.corpus > 0);
  List.iter
    (fun (e : Corpus.entry) ->
      check_bool
        (Printf.sprintf "replay %s" (Corpus.lineage e))
        true
        (Case.equal (Corpus.replay e) e.Corpus.case);
      (* and via the printed lineage string alone *)
      match Corpus.lineage_of_string (Corpus.lineage e) with
      | Error msg -> Alcotest.failf "lineage parse: %s" msg
      | Ok (base_seed, trace) ->
          check_bool
            (Printf.sprintf "lineage replay %s" (Corpus.lineage e))
            true
            (Case.equal (Corpus.replay_trace ~base_seed ~trace) e.Corpus.case))
    (Corpus.entries s.Fuzz.corpus)

(* -- coverage: guided strictly beats an equal blind budget -- *)

let test_guided_beats_blind () =
  let budget = 40 and seed = 7 in
  let s = Fuzz.run ~budget ~seed () in
  let guided = Corpus.feature_count s.Fuzz.corpus in
  let blind =
    (Fuzz.run ~oracles:[] ~seed_cases:budget ~budget ~seed ()).Fuzz.blind_features
  in
  check_int "same budget spent" budget s.Fuzz.executed;
  if guided <= blind then
    Alcotest.failf "guided %d feature(s) <= blind %d at budget %d" guided
      blind budget;
  (* and the guided surplus includes vocabulary blind can never draw *)
  let stateful =
    List.exists
      (fun f ->
        List.mem f
          [ "fault:rejoin"; "fault:byzantine"; "fault:partition";
            "fault:add-rule" ])
      (Coverage.features (Corpus.features s.Fuzz.corpus))
  in
  check_bool "stateful vocabulary reached" true stateful

(* -- mutators: validity floors survive arbitrary moves -- *)

let test_mutators_preserve_validity () =
  let rng = Rng.create 1234 in
  for i = 0 to 199 do
    let case = Case.generate ~seed:(500 + i) in
    List.iter
      (fun (m : Mutate.t) ->
        match Mutate.apply m ~step_seed:(Rng.int rng 1_000_000_000) case with
        | None -> ()
        | Some c ->
            check_bool
              (Printf.sprintf "%s keeps hosts floor (seed %d)" m.Mutate.name
                 (500 + i))
              true (Case.Lens.hosts_floor c);
            check_bool
              (Printf.sprintf "%s keeps k < nodes (seed %d)" m.Mutate.name
                 (500 + i))
              true
              (c.Case.k < c.Case.nodes && c.Case.k >= 1);
            check_bool
              (Printf.sprintf "%s changed the case (seed %d)" m.Mutate.name
                 (500 + i))
              true
              (not (Case.equal c case)))
      Mutate.all
  done

(* -- lineage: printable provenance round-trips -- *)

let test_lineage_roundtrip () =
  let trace =
    [ ("fault-inject", 280440992); ("workload-flip", 91026226);
      ("burst-rate", 3) ]
  in
  let lineage = Corpus.lineage_of ~base_seed:24 ~trace in
  check_string "lineage shape"
    "seed=24 fault-inject@280440992 workload-flip@91026226 burst-rate@3"
    lineage;
  (match Corpus.lineage_of_string lineage with
  | Error msg -> Alcotest.failf "round-trip: %s" msg
  | Ok (seed, trace') ->
      check_int "seed back" 24 seed;
      check_bool "trace back" true (trace = trace'));
  (match Corpus.lineage_of_string "seed=7" with
  | Ok (7, []) -> ()
  | Ok _ -> Alcotest.fail "bare seed parsed wrong"
  | Error msg -> Alcotest.failf "bare seed: %s" msg);
  match Corpus.lineage_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage lineage accepted"

(* -- blind identity: `check` without --fuzz is byte-identical to the
   pre-fuzzing tree. Case shape and run fingerprint digests were
   captured at the parent commit; any drift here means the fuzzing PR
   changed blind semantics, which it must not. -- *)

let blind_pins =
  [ (42, "e8c8c64d84519e46ba15f267347173ed", "41ffbf10fcdfce9763b835df82d1f697");
    (43, "57077026fec594b7e9c236a6fa996a26", "6fe6ac729a4a6ab9e043e374e4c7d285");
    (44, "cfed2f5de145e14d014b8e5c231c3368", "58be4de96de212cdf08b1c9ffa1a43b0");
    (45, "a98f7ea0492274aaa70e589a48f014bb", "9ea0f525fa1c77bae08b07b034fed884");
    (46, "0742b69cf2e409a7aa229ad84cb10527", "cc6c97619030987d3c549548830fc175");
    (1042, "5d78e2685387f8c0e062f4336bd26fc8", "c0ccec84d08f1e8f0f91fd75fb2cec07");
    (7, "60c29b30b768dc3b1809c7de78a1c522", "7feed672df6ed7f1a23251717d2644ac");
    (99, "603a40f1ac9518127977bf9bc2bf0ba0", "15a87d54693e9122d606282ed5c76661") ]

let test_blind_fingerprints_pinned () =
  List.iter
    (fun (seed, case_digest, run_digest) ->
      let case = Case.generate ~seed in
      check_string
        (Printf.sprintf "case digest (seed %d)" seed)
        case_digest
        (Digest.to_hex (Digest.string (Case.to_ocaml ~indent:"" case)));
      let o = Run.execute case in
      let fp = o.Run.fp in
      check_string
        (Printf.sprintf "run digest (seed %d)" seed)
        run_digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n"
                 (Printf.sprintf
                    "decided=%d faults=%d overload=%d degraded=%d"
                    (Run.count o Decided) (Run.count o Faulty)
                    (Run.count o Overload) (Run.count o Degraded)
                 :: fp.Run.verdict_lines)))))
    blind_pins

let suite =
  [ Alcotest.test_case "fuzz determinism" `Slow test_deterministic;
    Alcotest.test_case "corpus replay bit-identity" `Slow
      test_replay_bit_identical;
    Alcotest.test_case "guided beats blind coverage" `Slow
      test_guided_beats_blind;
    Alcotest.test_case "mutators preserve validity" `Quick
      test_mutators_preserve_validity;
    Alcotest.test_case "lineage round-trip" `Quick test_lineage_roundtrip;
    Alcotest.test_case "blind fingerprints pinned" `Slow
      test_blind_fingerprints_pinned ]
