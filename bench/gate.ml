(* Bench regression gate: compare fresh `bench --json` results against
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
   Rows present in the baseline but absent from a current run fail
   the gate too: a silently skipped measurement must not pass.

   Given several CURRENT files (repeats of the same run), each row is
   gated on its best run: the fewest ns/op, the most events/s. A
   repeat can only be slowed down by what else the machine is doing,
   never sped up, so one slow repeat does not fail the gate.

   The 2x default factor absorbs machine-to-machine noise (the baseline
   was recorded in this repo's CI container class); it is a
   catastrophic-regression tripwire, not a microbenchmark court.

   Usage: gate.exe BASELINE CURRENT... [FACTOR] *)

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

(* The best of the runs' values for one row, or [None] when a run
   lacks it. *)
let best ~better values =
  if List.mem None values then None
  else
    match List.filter_map Fun.id values with
    | [] -> None
    | v :: vs -> Some (List.fold_left better v vs)

let () =
  let baseline_path, current_paths, factor =
    let usage () =
      prerr_endline "usage: gate.exe BASELINE.json CURRENT.json... [FACTOR]";
      exit 2
    in
    match Array.to_list Sys.argv with
    | _ :: b :: (_ :: _ as rest) -> (
        let rev = List.rev rest in
        match (float_of_string_opt (List.hd rev), List.tl rev) with
        | None, _ -> (b, rest, 2.0)
        | Some f, (_ :: _ as currents) when f > 1.0 -> (b, List.rev currents, f)
        | Some _, _ :: _ ->
            prerr_endline "gate: FACTOR must be a float > 1";
            exit 2
        | Some _, [] -> usage ())
    | _ -> usage ()
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
  let currents = List.map load current_paths in
  let runs =
    match current_paths with
    | [ path ] -> path
    | paths -> Printf.sprintf "%d runs" (List.length paths)
  in
  let failures = ref 0 in
  let check_row ~name ~baseline_v ~current_v ~regressed ~unit_label =
    match current_v with
    | None ->
        incr failures;
        Printf.printf "FAIL %-36s missing from %s\n" name runs
    | Some cur ->
        let bad = regressed cur in
        if bad then incr failures;
        Printf.printf "%s %-36s baseline %.1f%s, current %.1f%s\n"
          (if bad then "FAIL" else "ok  ")
          name baseline_v unit_label cur unit_label
  in
  let fastest read = best ~better:Float.min (List.map read currents)
  and highest read = best ~better:Float.max (List.map read currents) in
  List.iter
    (fun (name, base) ->
      check_row ~name ~baseline_v:base
        ~current_v:(fastest (fun c -> List.assoc_opt name (policy_micro c)))
        ~regressed:(fun cur -> cur > factor *. base)
        ~unit_label:"ns")
    (policy_micro baseline);
  (match experiment_rate "validator-scale" baseline with
  | None -> print_endline "note: baseline has no validator-scale row"
  | Some base ->
      check_row ~name:"validator-scale events/s"
        ~baseline_v:base
        ~current_v:(highest (experiment_rate "validator-scale"))
        ~regressed:(fun cur -> cur < base /. factor)
        ~unit_label:"");
  List.iter
    (fun (name, base) ->
      check_row
        ~name:(name ^ " events/s")
        ~baseline_v:base
        ~current_v:
          (highest (fun c -> List.assoc_opt name (profile_experiments c)))
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
