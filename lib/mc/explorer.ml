open Jury_check
module Engine = Jury_sim.Engine
module Footprint = Jury_sim.Footprint

type stats = {
  explored : int;
  choice_points : int;
  deepest : int;
  branched : int;
  pruned : int;
  truncated : bool;
}

type divergence = {
  div_trace : Trace.t;
  div_diff : string option;
  div_failures : (Oracle.t * string) list;
}

type report = {
  rep_case : Case.t;
  rep_reference : Run.outcome;
  rep_stats : stats;
  rep_divergences : divergence list;
}

(* A chooser following [trace]: choice point [d] takes [trace.(d)],
   points beyond the trace (or choices out of range for the candidate
   set actually present) take the FIFO default 0. Each call to
   [trace_chooser] makes a fresh position counter, so a chooser is
   single-run state and the surrounding executor stays re-entrant. *)
let trace_chooser ?record trace =
  let trace = Array.of_list (Trace.to_list trace) in
  let pos = ref 0 in
  fun (cands : Engine.candidate array) ->
    let d = !pos in
    incr pos;
    (match record with None -> () | Some f -> f d cands);
    let choice = if d < Array.length trace then trace.(d) else 0 in
    if choice < Array.length cands then choice else 0

let chooser = trace_chooser

let run ?record case trace =
  Run.execute ~chooser:(trace_chooser ?record trace) ~deterministic:true case

let executor trace : Oracle.executor =
 fun ?shards ?batch_us case ->
  Run.execute
    ~chooser:(trace_chooser trace)
    ~deterministic:true ?shards ?batch_us case

(* The per-schedule battery, with the schedule's own outcome as the
   memoised base run so oracles that only inspect one run cost
   nothing extra. *)
let check_schedule ~oracles case trace outcome =
  match oracles with
  | [] -> []
  | oracles ->
      Oracle.check_run ~oracles
        { Oracle.case; execute = executor trace; base = lazy outcome }

let divergence_of ~oracles case reference trace outcome =
  let diff = Run.diff_schedule_blind reference.Run.fp outcome.Run.fp in
  let failures = check_schedule ~oracles case trace outcome in
  if diff = None && failures = [] then None
  else Some { div_trace = trace; div_diff = diff; div_failures = failures }

let explore_with ?(prune = true) ?(max_schedules = 1000) ?(max_depth = max_int)
    ~run:run_trace ~check () =
  if max_schedules < 1 then
    invalid_arg "Explorer.explore: max_schedules must be >= 1";
  if max_depth < 0 then
    invalid_arg "Explorer.explore: max_depth must be >= 0";
  let explored = ref 0
  and choice_points = ref 0
  and deepest = ref 0
  and branched = ref 0
  and pruned = ref 0
  and truncated = ref false in
  let divergences = ref [] in
  let reference = ref None in
  (* Depth-first over trace prefixes. Each stack entry is a complete
     schedule (its implicit suffix is all-FIFO); running it records the
     candidate sets at the choice points past the prefix, which seed
     the sibling prefixes still to visit. Ancestor points were branched
     when their own prefix ran, so each schedule is visited exactly
     once. *)
  let stack = ref [ Trace.empty ] in
  while !stack <> [] && !explored < max_schedules do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        let prefix_arr = Array.of_list (Trace.to_list prefix) in
        let plen = Array.length prefix_arr in
        let free = ref [] in
        let record d cands =
          incr choice_points;
          if d + 1 > !deepest then deepest := d + 1;
          if d >= plen then
            if d < max_depth then free := (d, cands) :: !free
            else truncated := true
        in
        let outcome = run_trace record prefix in
        incr explored;
        let ref_outcome =
          match !reference with
          | Some r -> r
          | None ->
              reference := Some outcome;
              outcome
        in
        (match check ref_outcome prefix outcome with
        | None -> ()
        | Some d -> divergences := d :: !divergences);
        (* Branch: candidate 0 is the schedule just run; candidate j > 0
           starts a new schedule unless it commutes with every earlier
           candidate at its point (in which case running it first is
           equivalent to a schedule already covered). *)
        let siblings = ref [] in
        List.iter
          (fun (d, (cands : Engine.candidate array)) ->
            for j = Array.length cands - 1 downto 1 do
              let dependent_with_earlier =
                (not prune)
                ||
                let dep = ref false in
                for i = 0 to j - 1 do
                  if
                    not
                      (Footprint.independent cands.(i).Engine.cand_footprint
                         cands.(j).Engine.cand_footprint)
                  then dep := true
                done;
                !dep
              in
              if dependent_with_earlier then begin
                incr branched;
                let sib =
                  List.init (d + 1) (fun k ->
                      if k < plen then prefix_arr.(k)
                      else if k = d then j
                      else 0)
                in
                siblings := Trace.of_list sib :: !siblings
              end
              else incr pruned
            done)
          !free;
        stack := !siblings @ !stack
  done;
  if !stack <> [] then truncated := true;
  let reference =
    match !reference with
    | Some r -> r
    | None -> assert false (* max_schedules >= 1 forces one run *)
  in
  ( reference,
    { explored = !explored;
      choice_points = !choice_points;
      deepest = !deepest;
      branched = !branched;
      pruned = !pruned;
      truncated = !truncated },
    List.rev !divergences )

let explore ?prune ?max_schedules ?max_depth ?oracles case =
  let oracles =
    match oracles with Some os -> os | None -> Registry.all ()
  in
  let rep_reference, rep_stats, rep_divergences =
    explore_with ?prune ?max_schedules ?max_depth
      ~run:(fun record trace -> run ~record case trace)
      ~check:(fun reference trace outcome ->
        divergence_of ~oracles case reference trace outcome)
      ()
  in
  { rep_case = case; rep_reference; rep_stats; rep_divergences }

let replay ?(oracles = []) case trace =
  let reference = run case Trace.empty in
  let outcome = run case trace in
  (outcome, divergence_of ~oracles case reference trace outcome)

let describe_divergence d =
  Printf.sprintf "schedule %s: %s"
    (Trace.to_string d.div_trace)
    (match d.div_diff with
    | Some diff -> diff
    | None ->
        String.concat "; "
          (List.map
             (fun ((o : Oracle.t), m) -> o.Oracle.name ^ ": " ^ m)
             d.div_failures))

let mc_oracle ?(prune = true) ?(max_schedules = 64) ?(max_depth = max_int)
    ?(oracles = []) () =
  { Oracle.name = "schedule-independence";
    family = "mc";
    doc = "small-scope schedule exploration finds no divergent schedule";
    check =
      (fun ctx ->
        let r =
          explore ~prune ~max_schedules ~max_depth ~oracles ctx.Oracle.case
        in
        match r.rep_divergences with
        | [] -> Oracle.Pass
        | d :: _ -> Oracle.Fail (describe_divergence d)) }

(* Greedy trace reduction: a shorter or lower-indexed trace that still
   diverges is a better repro. Dropping trailing choices and lowering a
   choice toward 0 both strictly decrease (length, sum), so this
   terminates; each probe is one full re-execution. *)
let minimise_trace ~oracles case reference trace =
  let diverges t =
    let t = Trace.of_list t in
    divergence_of ~oracles case reference t (run case t) <> None
  in
  let rec drop_last t =
    match List.rev t with
    | [] -> t
    | _ :: rev_rest ->
        let t' = List.rev rev_rest in
        if diverges t' then drop_last t' else t
  in
  let t = drop_last (Trace.to_list trace) in
  let arr = Array.of_list t in
  for i = 0 to Array.length arr - 1 do
    let orig = arr.(i) in
    let rec try_from v =
      if v < orig then begin
        arr.(i) <- v;
        if not (diverges (Array.to_list arr)) then begin
          arr.(i) <- orig;
          try_from (v + 1)
        end
      end
    in
    try_from 0
  done;
  (* A trailing 0 is the beyond-trace default: stripping it never
     changes the schedule. *)
  let stripped =
    let rec strip = function 0 :: tl -> strip tl | l -> l in
    List.rev (strip (List.rev (Array.to_list arr)))
  in
  Trace.of_list stripped

type minimised = {
  min_case : Case.t;
  min_trace : Trace.t;
  min_diff : string option;
  min_failures : (Oracle.t * string) list;
  min_steps : int;
  min_shrunk : int;
}

let minimise ?(max_steps = 60) ?(max_schedules = 64) ?(max_depth = max_int)
    ?(oracles = []) case =
  let oracle = mc_oracle ~max_schedules ~max_depth ~oracles () in
  match Oracle.check_case ~oracles:[ oracle ] case with
  | [] -> Error "case exhibits no schedule divergence"
  | failures ->
      let s = Shrink.minimise ~max_steps ~oracles:[ oracle ] case failures in
      let minimal = s.Shrink.minimal in
      let r = explore ~max_schedules ~max_depth ~oracles minimal in
      (match r.rep_divergences with
      | [] ->
          (* The shrinker's last accepted candidate diverged when it was
             checked, so a clean re-exploration means a bounded search
             stopped short of the divergence; report the bound. *)
          Error
            "shrunk case no longer diverges within the exploration bounds; \
             raise max_schedules"
      | d :: _ ->
          let trace =
            minimise_trace ~oracles minimal r.rep_reference d.div_trace
          in
          let outcome = run minimal trace in
          let diff =
            Run.diff_schedule_blind r.rep_reference.Run.fp outcome.Run.fp
          in
          let failures = check_schedule ~oracles minimal trace outcome in
          Ok
            { min_case = minimal;
              min_trace = trace;
              min_diff = diff;
              min_failures = failures;
              min_steps = s.Shrink.steps;
              min_shrunk = s.Shrink.shrunk })

let demo_case ?(seed = 7) ?(switches = 2) ?(triggers = 3) ?(nodes = 3) () =
  if switches < 1 || switches > 3 then
    invalid_arg "Explorer.demo_case: switches must be in [1, 3]";
  if triggers < 1 || triggers > 5 then
    invalid_arg "Explorer.demo_case: triggers must be in [1, 5]";
  if nodes < 2 || nodes > 5 then
    invalid_arg "Explorer.demo_case: nodes must be in [2, 5]";
  let duration_ms = 40 in
  { Case.case_seed = seed;
    topo = Case.Linear;
    switches;
    hosts_per_switch = 1;
    nodes;
    k = min 2 (nodes - 1);
    odl = false;
    workload = Case.Joins;
    rate = float_of_int triggers *. 1000. /. float_of_int duration_ms;
    duration_ms;
    faults = [];
    drop = 0.;
    duplicate = 0.;
    jitter_us = 0.;
    retries = 0;
    degraded_quorum = None;
    shards = 1;
    max_inflight = None;
    batch_us = None;
    triggers }
