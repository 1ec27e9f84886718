open Jury_sim

type suspect_row = {
  controller : int;
  alarm_count : int;
  fault_kinds : (string * int) list;
  first_at : Time.t;
  last_at : Time.t;
}

type t = {
  decided : int;
  ok : int;
  non_deterministic : int;
  unverifiable : int;
  degraded : int;
  overload : int;
  faulty : int;
  suspects : suspect_row list;
  alarms : Alarm.t list;
  detection_ms : float array;
  detection : Jury_stats.Summary.t option;
}

let bump tbl key f init =
  match Hashtbl.find_opt tbl key with
  | Some v -> Hashtbl.replace tbl key (f v)
  | None -> Hashtbl.replace tbl key (f init)

let of_validator ?(since = Time.zero) v =
  let ok = ref 0 and non_deterministic = ref 0 and unverifiable = ref 0
  and degraded = ref 0 and overload = ref 0 and faulty = ref 0 in
  (* Newest first, so consing leaves the samples oldest first. *)
  let samples =
    Validator.fold_since v ~since ~init:[]
      (fun acc verdict ~trigger_at ~decided_at ->
        incr
          (match (verdict : Alarm.verdict) with
          | Ok_valid -> ok
          | Ok_non_deterministic -> non_deterministic
          | Ok_unverifiable -> unverifiable
          | Ok_degraded -> degraded
          | Overload -> overload
          | Faulty _ -> faulty);
        Time.to_float_ms (Time.sub decided_at trigger_at) :: acc)
  in
  let alarms =
    List.filter
      (fun (a : Alarm.t) -> Time.(a.decided_at >= since))
      (Validator.alarms v)
  in
  let per_suspect = Hashtbl.create 8 in
  List.iter
    (fun (a : Alarm.t) ->
      let kinds =
        match a.Alarm.verdict with
        | Alarm.Faulty fs -> List.map Alarm.fault_name fs
        | _ -> []
      in
      List.iter
        (fun suspect ->
          bump per_suspect suspect
            (fun (count, kind_tbl, first, last) ->
              List.iter
                (fun k -> bump kind_tbl k (fun n -> n + 1) 0)
                kinds;
              ( count + 1,
                kind_tbl,
                Time.min first a.Alarm.decided_at,
                Time.max last a.Alarm.decided_at ))
            (0, Hashtbl.create 4, a.Alarm.decided_at, a.Alarm.decided_at))
        a.Alarm.suspects)
    alarms;
  let suspects =
    Hashtbl.fold
      (fun controller (alarm_count, kind_tbl, first_at, last_at) acc ->
        let fault_kinds =
          Hashtbl.fold (fun k n acc -> (k, n) :: acc) kind_tbl []
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        { controller; alarm_count; fault_kinds; first_at; last_at } :: acc)
      per_suspect []
    |> List.sort (fun a b -> compare b.alarm_count a.alarm_count)
  in
  let detection_ms = Array.of_list samples in
  { decided = Array.length detection_ms;
    ok = !ok;
    non_deterministic = !non_deterministic;
    unverifiable = !unverifiable;
    degraded = !degraded;
    overload = !overload;
    faulty = !faulty;
    suspects;
    alarms;
    detection_ms;
    detection =
      (if Array.length detection_ms = 0 then None
       else Some (Jury_stats.Summary.of_array detection_ms)) }

let healthy t = t.faulty = 0

let most_suspect t =
  match t.suspects with [] -> None | s :: _ -> Some s.controller

let pp fmt t =
  (* The degraded and overload columns only appear when such verdicts
     exist, so reports from runs without a lossy channel or an
     in-flight cap stay byte-identical to the historical format. *)
  let extra =
    (if t.degraded > 0 then Printf.sprintf ", %d degraded" t.degraded else "")
    ^
    if t.overload > 0 then Printf.sprintf ", %d overload" t.overload else ""
  in
  Format.fprintf fmt
    "validated %d responses: %d ok, %d non-deterministic, %d unverifiable%s, \
     %d faulty@."
    t.decided t.ok t.non_deterministic t.unverifiable extra t.faulty;
  (match t.detection with
  | Some s ->
      Format.fprintf fmt "detection time (ms): %a@." Jury_stats.Summary.pp s
  | None -> ());
  List.iter
    (fun row ->
      Format.fprintf fmt "  controller %d: %d alarm(s) [%s] between %a and %a@."
        row.controller row.alarm_count
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s x%d" k n)
              row.fault_kinds))
        Time.pp row.first_at Time.pp row.last_at)
    t.suspects

let to_string t = Format.asprintf "%a" pp t
