module Rng = Jury_sim.Rng

type failure = {
  lineage : string;
  case : Case.t;
  violations : (Oracle.t * string) list;
  shrink : Shrink.outcome option;
}

type summary = {
  executed : int;
  seed_cases : int;
  corpus : Corpus.t;
  blind_features : int;
  failures : failure list;
}

(* The cheap per-run families: one deployment execution plus a replay,
   no shard/batch/parallel sweeps — the right cost profile for a
   budget loop that wants throughput. *)
let default_oracles () =
  Registry.by_family "conservation" @ Registry.by_family "channel"

let repro f =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "fuzz mutant FAILED";
  line "  lineage: %s" f.lineage;
  line "  replay: jury_cli check --replay '%s'" f.lineage;
  line "  case: %s" (Format.asprintf "%a" Case.pp f.case);
  List.iter
    (fun ((o : Oracle.t), msg) ->
      line "  oracle %s [%s]: %s" o.Oracle.name o.Oracle.family msg)
    f.violations;
  (match f.shrink with
  | None -> ()
  | Some s ->
      line "  shrunk (%d reductions, %d executions): %s" s.Shrink.shrunk
        s.Shrink.steps
        (Format.asprintf "%a" Case.pp s.Shrink.minimal));
  let minimal =
    match f.shrink with Some s -> s.Shrink.minimal | None -> f.case
  in
  line "  corpus entry:";
  line "let () =";
  line "  add ~name:\"fuzz-%s\" ~oracle:\"%s\""
    (match String.split_on_char ' ' f.lineage with t :: _ -> t | [] -> "case")
    (match f.violations with
    | ((o : Oracle.t), _) :: _ -> o.Oracle.name
    | [] -> "unknown");
  Buffer.add_string b (Case.to_ocaml ~indent:"    " minimal);
  Buffer.contents b

let run ?(log = ignore) ?oracles ?seed_cases ?(max_shrink = 0)
    ~budget ~seed () =
  let oracles = match oracles with Some o -> o | None -> default_oracles () in
  (* Most of the budget goes to blind seeding: the corpus then carries
     nearly all of blind mode's axis diversity (whose marginal feature
     yield decays fast), and the guided tail adds what only mutation
     reaches — the stateful fault vocabulary and compound axis moves. *)
  let seed_cases =
    match seed_cases with Some n -> n | None -> max 1 (budget * 3 / 4)
  in
  let corpus = Corpus.create () in
  let rng = Rng.create seed in
  let executed = ref 0 in
  let failures = ref [] in
  (* One primary execution: trace attached (for phase features),
     outcome shared between coverage extraction and the oracle battery
     so the case runs once. *)
  let run_case ~lineage case =
    let tr = Jury_obs.Trace.create () in
    let outcome = Run.execute ~trace:tr case in
    incr executed;
    let cov = Coverage.of_run ~trace:tr case outcome in
    let ctx = { (Oracle.ctx case) with Oracle.base = Lazy.from_val outcome } in
    (match Oracle.check_run ~oracles ctx with
    | [] -> ()
    | violations ->
        let shrink =
          if max_shrink <= 0 then None
          else
            Some (Shrink.minimise ~max_steps:max_shrink ~oracles case violations)
        in
        let f = { lineage; case; violations; shrink } in
        failures := f :: !failures;
        log (repro f));
    cov
  in
  (* Seed the pool with blind cases; their features are the baseline
     guided mutation must beat. *)
  let seeds = min seed_cases budget in
  for i = 0 to seeds - 1 do
    let base_seed = seed + i in
    let case = Case.generate ~seed:base_seed in
    let cov = run_case ~lineage:(Printf.sprintf "seed=%d" base_seed) case in
    ignore (Corpus.admit corpus ~base_seed ~trace:[] case cov)
  done;
  let blind_features = Corpus.feature_count corpus in
  log
    (Printf.sprintf "seeded %d blind case(s): corpus %d, %d feature(s)" seeds
       (Corpus.size corpus) blind_features);
  (* Budget loop: pick an entry and a mutator, run the mutant, admit
     on novelty. Mutation attempts that do not apply cost no
     executions; the attempt cap bounds the loop when the move set is
     exhausted. *)
  let attempts = ref 0 in
  let max_attempts = 20 * budget in
  (* fault-inject is over-weighted: it is the sole door into the
     stateful vocabulary (rejoin / Byzantine / partition / policy
     churn), where blind coverage can never follow. *)
  let mutators =
    let inject =
      List.filter (fun (m : Mutate.t) -> m.Mutate.name = "fault-inject")
        Mutate.all
    in
    Array.of_list
      (Mutate.all @ inject @ inject @ inject @ inject @ inject @ inject)
  in
  while !executed < budget && !attempts < max_attempts && Corpus.size corpus > 0
  do
    incr attempts;
    let entry = Corpus.nth corpus (Rng.int rng (Corpus.size corpus)) in
    (* Compound moves (1–3 stacked steps) cover axis combinations a
       single lens tweak cannot; steps that do not apply are skipped
       without burning budget. *)
    let steps = 1 + Rng.int rng 3 in
    let case, rev_steps =
      let rec go n case acc =
        if n = 0 then (case, acc)
        else
          let m = Rng.choice rng mutators in
          let step_seed = Rng.int rng 1_000_000_000 in
          match Mutate.apply m ~step_seed case with
          | None -> go (n - 1) case acc
          | Some case' -> go (n - 1) case' ((m.Mutate.name, step_seed) :: acc)
      in
      go steps entry.Corpus.case []
    in
    match rev_steps with
    | [] -> ()
    | _ ->
        let trace = entry.Corpus.trace @ List.rev rev_steps in
        let lineage =
          Corpus.lineage_of ~base_seed:entry.Corpus.base_seed ~trace
        in
        let cov = run_case ~lineage case in
        (match
           Corpus.admit corpus ~base_seed:entry.Corpus.base_seed ~trace case
             cov
         with
        | None -> ()
        | Some e ->
            log
              (Printf.sprintf "  + corpus %s (%d feature(s) new): %s"
                 e.Corpus.id
                 (List.length e.Corpus.novel)
                 lineage));
        if !executed mod 25 = 0 then
          log
            (Printf.sprintf "  ... %d/%d runs, corpus %d, %d feature(s)"
               !executed budget (Corpus.size corpus)
               (Corpus.feature_count corpus))
  done;
  { executed = !executed;
    seed_cases = seeds;
    corpus;
    blind_features;
    failures = List.rev !failures }

let blind_feature_count ~cases ~seed () =
  let cov = ref Coverage.empty in
  for i = 0 to cases - 1 do
    let case = Case.generate ~seed:(seed + i) in
    let tr = Jury_obs.Trace.create () in
    let outcome = Run.execute ~trace:tr case in
    cov := Coverage.union !cov (Coverage.of_run ~trace:tr case outcome)
  done;
  Coverage.cardinal !cov
