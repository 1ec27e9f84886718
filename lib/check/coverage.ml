module SS = Set.Make (String)

type t = SS.t

let empty = SS.empty
let features = SS.elements
let cardinal = SS.cardinal
let union = SS.union
let diff = SS.diff
let is_empty = SS.is_empty
let equal = SS.equal
let mem = SS.mem
let of_features = SS.of_list

(* Power-of-four bucketing keeps the feature space finite and coarse:
   a counter moving from 5 to 6 (or 15) is the same behaviour, 5 to
   50 is not. Coarse buckets deliberately under-reward smooth knob
   variation so categorical novelty (a verdict class, a fault kind, a
   phase) dominates admission. *)
let bucket n =
  let rec go n b = if n <= 1 then b else go (n / 4) (b + 1) in
  go n 0

let counter acc name n =
  if n <= 0 then acc
  else SS.add (Printf.sprintf "ctr:%s:b%d" name (bucket n)) acc

let fault_kind (a : Case.fault_action) =
  match a with
  | Case.Slow _ -> "slow"
  | Case.Lossy _ -> "lossy"
  | Case.Crash _ -> "crash"
  | Case.Drop_sends _ -> "drop-sends"
  | Case.Blackhole _ -> "blackhole"
  | Case.Lock_cache _ -> "lock-cache"
  | Case.Heal _ -> "heal"
  | Case.Rejoin _ -> "rejoin"
  | Case.Byzantine _ -> "byzantine"
  | Case.Partition _ -> "partition"
  | Case.Add_rule _ -> "add-rule"
  | Case.Fail_master _ -> "fail-master"

let verdict_class line =
  match String.split_on_char '|' line with
  | _ :: c :: _ -> c
  | _ -> "unparsed"

let of_run ?trace (case : Case.t) (o : Run.outcome) =
  let acc = ref SS.empty in
  let add f = acc := SS.add f !acc in
  (* Verdict-class histogram: which classes appeared, at what
     magnitude. *)
  let classes = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let c = verdict_class line in
      Hashtbl.replace classes c
        (1 + Option.value ~default:0 (Hashtbl.find_opt classes c)))
    o.Run.fp.Run.verdict_lines;
  Hashtbl.iter
    (fun c n ->
      add (Printf.sprintf "verdict:%s" c);
      add (Printf.sprintf "verdict:%s:b%d" c (bucket n)))
    classes;
  (* Oracle-relevant counters that moved. The feature names are part of
     every saved corpus, so they are spelled out here rather than taken
     from [Counter.name]. *)
  let count = Run.count o in
  List.iter
    (fun (name, n) -> acc := counter !acc name n)
    [ ("decided", count Decided);
      ("faults", count Faulty);
      ("unverifiable", count Unverifiable);
      ("degraded", count Degraded);
      ("overload", count Overload);
      ("pending", o.Run.pending_after_flush);
      ("alarms", o.Run.alarm_count);
      ("duplicates", count Duplicate);
      ("late", count Late);
      ("retransmits", count Retransmit);
      ("stragglers", count Straggler);
      ("batches", count Batch);
      ("epoch", o.Run.epoch);
      ("channel-dropped", o.Run.totals.Jury.Channel.dropped);
      ("channel-duplicated", o.Run.totals.Jury.Channel.duplicated) ];
  (* Span phases the run visited (trace emission is passive, so
     reading them costs nothing in determinism). *)
  (match trace with
  | None -> ()
  | Some tr ->
      List.iter
        (fun (ev : Jury_obs.Trace.event) ->
          match ev.Jury_obs.Trace.kind with
          | Jury_obs.Trace.Open p | Jury_obs.Trace.Point p ->
              add ("phase:" ^ Jury_obs.Trace.phase_name p)
          | Jury_obs.Trace.Close -> ())
        (Jury_obs.Trace.events tr));
  (* Fault interleavings: which levers ran, and in what adjacent
     order. *)
  let kinds =
    List.map (fun (f : Case.fault_event) -> fault_kind f.Case.action)
      (List.sort
         (fun (a : Case.fault_event) b -> compare a.Case.at_ms b.Case.at_ms)
         case.Case.faults)
  in
  List.iter (fun k -> add ("fault:" ^ k)) kinds;
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        add (Printf.sprintf "fault2:%s>%s" a b);
        pairs rest
    | _ -> []
  in
  ignore (pairs kinds);
  !acc
