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
  detection : Jury_stats.Summary.t option;
}

let bump tbl key f init =
  match Hashtbl.find_opt tbl key with
  | Some v -> Hashtbl.replace tbl key (f v)
  | None -> Hashtbl.replace tbl key (f init)

let of_validator v =
  let verdicts = Validator.verdicts v in
  let faulty_alarms = List.filter Alarm.is_fault verdicts in
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
    faulty_alarms;
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
  let detection =
    match verdicts with
    | [] -> None
    | vs ->
        Some
          (Jury_stats.Summary.of_list
             (List.map
                (fun a -> Time.to_float_ms (Alarm.detection_time a))
                vs))
  in
  let count verdict =
    List.length (List.filter (fun a -> a.Alarm.verdict = verdict) verdicts)
  in
  { decided = Validator.decided_count v;
    ok = count Alarm.Ok_valid;
    non_deterministic = count Alarm.Ok_non_deterministic;
    unverifiable = Validator.count v Unverifiable;
    degraded = Validator.count v Degraded;
    overload = Validator.count v Overload;
    faulty = List.length faulty_alarms;
    suspects;
    detection }

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
