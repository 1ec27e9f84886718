(* Bench regression gate: compare a fresh `bench --json` result against
   the committed BENCH_baseline.json and fail (exit 1) on a >FACTOR
   slowdown in the gated rows.

   Gated rows — chosen because they measure pure compute with no
   simulated-time component, so they are stable enough to threshold:
     - every micro_ns_per_op row named "policy-scale-*" (ns/op; fails
       when current > factor * baseline);
     - the "validator-scale" experiment's events_per_sec (fails when
       current < baseline / factor);
     - every experiment named "profile-*" (the per-controller-profile
       runs: onos, odl, ryu), same events_per_sec threshold.
   Rows present in the baseline but absent from the current run fail
   the gate too: a silently skipped measurement must not pass.

   The 2x default factor absorbs machine-to-machine noise (the baseline
   was recorded in this repo's CI container class); it is a
   catastrophic-regression tripwire, not a microbenchmark court.

   Usage: gate.exe BASELINE CURRENT [FACTOR] *)

module Json = Jury_obs.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- gated rows --------------------------------------------------- *)

let events_per_sec row =
  Option.bind (Json.member "events_per_sec" row) Json.to_float

(* micro_ns_per_op rows named policy-scale-* *)
let policy_micro json =
  match Json.member "micro_ns_per_op" json with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          if String.starts_with ~prefix:"policy-scale-" k then
            Option.map (fun f -> (k, f)) (Json.to_float v)
          else None)
        kvs
  | _ -> []

let experiment_rate name json =
  match Json.member "experiments" json with
  | Some (Json.List rows) ->
      List.find_map
        (fun row ->
          if Json.member "name" row = Some (Json.String name) then
            events_per_sec row
          else None)
        rows
  | _ -> None

(* experiments rows named profile-* (per-controller-profile runs) *)
let profile_experiments json =
  match Json.member "experiments" json with
  | Some (Json.List rows) ->
      List.filter_map
        (fun row ->
          match (Json.member "name" row, events_per_sec row) with
          | Some (Json.String name), Some rate
            when String.starts_with ~prefix:"profile-" name ->
              Some (name, rate)
          | _ -> None)
        rows
  | _ -> []

let () =
  let baseline_path, current_path, factor =
    match Array.to_list Sys.argv with
    | [ _; b; c ] -> (b, c, 2.0)
    | [ _; b; c; f ] -> (
        match float_of_string_opt f with
        | Some f when f > 1.0 -> (b, c, f)
        | _ ->
            prerr_endline "gate: FACTOR must be a float > 1";
            exit 2)
    | _ ->
        prerr_endline "usage: gate.exe BASELINE.json CURRENT.json [FACTOR]";
        exit 2
  in
  let load path =
    match Json.of_string (read_file path) with
    | Ok json -> json
    | Error msg ->
        Printf.eprintf "gate: %s: %s\n" path msg;
        exit 2
    | exception Sys_error msg ->
        Printf.eprintf "gate: %s\n" msg;
        exit 2
  in
  let baseline = load baseline_path in
  let current = load current_path in
  let failures = ref 0 in
  let check_row ~name ~baseline_v ~current_v ~regressed ~unit_label =
    match current_v with
    | None ->
        incr failures;
        Printf.printf "FAIL %-36s missing from %s\n" name current_path
    | Some cur ->
        let bad = regressed cur in
        if bad then incr failures;
        Printf.printf "%s %-36s baseline %.1f%s, current %.1f%s\n"
          (if bad then "FAIL" else "ok  ")
          name baseline_v unit_label cur unit_label
  in
  List.iter
    (fun (name, base) ->
      let cur = List.assoc_opt name (policy_micro current) in
      check_row ~name ~baseline_v:base ~current_v:cur
        ~regressed:(fun cur -> cur > factor *. base)
        ~unit_label:"ns")
    (policy_micro baseline);
  (match experiment_rate "validator-scale" baseline with
  | None -> print_endline "note: baseline has no validator-scale row"
  | Some base ->
      check_row ~name:"validator-scale events/s"
        ~baseline_v:base
        ~current_v:(experiment_rate "validator-scale" current)
        ~regressed:(fun cur -> cur < base /. factor)
        ~unit_label:"");
  List.iter
    (fun (name, base) ->
      check_row
        ~name:(name ^ " events/s")
        ~baseline_v:base
        ~current_v:(List.assoc_opt name (profile_experiments current))
        ~regressed:(fun cur -> cur < base /. factor)
        ~unit_label:"")
    (profile_experiments baseline);
  if profile_experiments baseline = [] then
    print_endline "note: baseline has no profile-* rows";
  if policy_micro baseline = [] then
    print_endline "note: baseline has no policy-scale micro rows";
  if !failures > 0 then begin
    Printf.printf "bench gate: %d row(s) regressed beyond %.1fx\n" !failures
      factor;
    exit 1
  end
  else print_endline "bench gate: within budget"
