open Jury_sim
module Types = Jury_controller.Types
module Validator = Jury.Validator
module Response = Jury.Response
module Snapshot = Jury.Snapshot
module Event = Jury_store.Event
module Names = Jury_store.Cache_names

type result = Pass | Fail of string

type executor =
  ?shards:int -> ?batch_us:int option -> Case.t -> Run.outcome

type ctx = { case : Case.t; execute : executor; base : Run.outcome Lazy.t }

let ctx_with ~execute case = { case; execute; base = lazy (execute case) }

let ctx case =
  ctx_with case
    ~execute:(fun ?shards ?batch_us c -> Run.execute ?shards ?batch_us c)

type t = {
  name : string;
  family : string;
  doc : string;
  check : ctx -> result;
}

let failf fmt = Printf.ksprintf (fun s -> Fail s) fmt

let all_pass checks =
  let rec go = function
    | [] -> Pass
    | (true, _) :: rest -> go rest
    | (false, msg) :: _ -> Fail msg
  in
  go checks

(* --- conservation ------------------------------------------------- *)

let verdict_conservation { base; _ } =
  let o = Lazy.force base in
  let fp = o.Run.fp in
  let decided = Run.count o Decided and faults = Run.count o Faulty in
  all_pass
    [ (o.Run.pending_after_flush = 0,
       Printf.sprintf "%d triggers still pending after flush"
         o.Run.pending_after_flush);
      (List.length fp.Run.verdict_lines = decided,
       Printf.sprintf "decided=%d but %d verdicts recorded" decided
         (List.length fp.Run.verdict_lines));
      (o.Run.detection_count = decided,
       Printf.sprintf "decided=%d but %d detection-time samples" decided
         o.Run.detection_count);
      (o.Run.alarm_count = faults,
       Printf.sprintf "fault_count=%d but %d alarms" faults o.Run.alarm_count) ]

let report_consistency { base; _ } =
  let o = Lazy.force base in
  let fp = o.Run.fp in
  (* The report is an aggregation of the same verdict stream; its
     roll-ups must match the validator's counters exactly. *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let count = Run.count o in
  let header = Printf.sprintf "validated %d responses" (count Decided) in
  all_pass
    [ (contains header fp.Run.report,
       Printf.sprintf "report does not state %S" header);
      (count Faulty <= count Decided, "more faults than verdicts");
      (count Overload
       = List.length
           (List.filter
              (fun l -> contains "|overload|" l)
              fp.Run.verdict_lines),
       "overload counter disagrees with Overload verdicts");
      (count Degraded
       = List.length
           (List.filter
              (fun l -> contains "|ok-degraded|" l)
              fp.Run.verdict_lines),
       "degraded counter disagrees with Ok_degraded verdicts") ]

let replay_determinism { case; base; execute } =
  let a = Lazy.force base in
  let b = execute case in
  match Run.diff_fingerprint a.Run.fp b.Run.fp with
  | None ->
      if a.Run.totals = b.Run.totals then Pass
      else Fail "channel totals differ between identical executions"
  | Some d -> failf "replay diverged: %s" d

(* --- sharding ----------------------------------------------------- *)

let shard_independence { case; base; execute } =
  let at_1 =
    if case.Case.shards = 1 then Lazy.force base else execute ~shards:1 case
  in
  let at_4 =
    if case.Case.shards = 4 then Lazy.force base else execute ~shards:4 case
  in
  match Run.diff_fingerprint at_1.Run.fp at_4.Run.fp with
  | None -> Pass
  | Some d -> failf "shards=1 vs shards=4: %s" d

(* --- batching (synthetic stream against a bare validator) --------- *)

(* A randomised but deterministic response stream: [case.triggers]
   external triggers; per participant a response that may be omitted or
   duplicated, with snapshots and planned actions drawn from small pools
   so the consensus, non-determinism, unverifiable and timeout paths all
   get exercised. Every seventh trigger is never registered, so its
   responses find no pending record and count as late. *)
let synthetic_stream (case : Case.t) =
  let rng = Rng.create (case.Case.case_seed lxor 0x5eed_beef) in
  let nodes = max 3 case.Case.nodes in
  let event i =
    { Event.cache = Names.flowsdb; op = Event.Create;
      key = Printf.sprintf "k%d" i; value = "v"; origin = 0; seq = i;
      taint = None }
  in
  let snapshots =
    [| Snapshot.pristine;
       Snapshot.observe Snapshot.pristine (event 1);
       Snapshot.observe
         (Snapshot.observe Snapshot.pristine (event 1))
         (event 2) |]
  in
  let action key =
    Types.Cache_write
      { cache = Names.flowsdb; op = Event.Create; key; value = "v" }
  in
  let registrations = ref [] and responses = ref [] in
  for serial = 0 to case.Case.triggers - 1 do
    let primary = Rng.int rng nodes in
    let taint = Types.Taint.external_trigger ~primary ~serial in
    let others =
      List.filter (fun n -> n <> primary) (List.init nodes (fun i -> i))
    in
    let secondaries =
      Rng.sample_without_replacement rng (min case.Case.k (nodes - 1)) others
      |> List.sort compare
    in
    if serial mod 7 <> 3 then
      registrations := (taint, primary, secondaries) :: !registrations;
    let respond controller role =
      if Rng.bernoulli rng 0.85 then begin
        let snapshot = Rng.choice rng snapshots in
        let actions =
          if Rng.bernoulli rng 0.8 then [ action "k0" ]
          else [ action (Printf.sprintf "k%d" (Rng.int rng 3)) ]
        in
        let r =
          { Response.controller; taint; snapshot; sent_at = Time.zero; term = 0;
            body = Response.Execution { role; actions } }
        in
        responses := r :: !responses;
        if Rng.bernoulli rng 0.1 then responses := r :: !responses
      end
    in
    respond primary `Primary;
    List.iter (fun s -> respond s `Secondary) secondaries
  done;
  let stream = Array.of_list (List.rev !responses) in
  Rng.shuffle rng stream;
  (List.rev !registrations, Array.to_list stream)

(* With [stage], a {!Jury.Stage} replays validation into shard
   replicas on [stage]'s domains. *)
let bare_validator ?stage (case : Case.t) ~shards =
  let engine = Engine.create ~seed:case.Case.case_seed () in
  let max_inflight =
    Option.map (fun _ -> max 2 (case.Case.triggers / 2)) case.Case.max_inflight
  in
  let cfg =
    Jury.Jury_config.validator
      ~ack_peers_of:(fun _ -> [])
      (Jury.Jury_config.make ~k:case.Case.k ~timeout:(Time.ms 100) ~shards
         ?max_inflight ())
  in
  let v = Validator.create engine cfg in
  Option.iter (fun pool -> Jury.Stage.attach ~pool ~jobs:2 cfg v) stage;
  v

let chunk sizes_rng stream =
  let rec go acc = function
    | [] -> List.rev acc
    | rest ->
        let n = 1 + Rng.int sizes_rng 5 in
        let rec take i xs taken =
          match xs with
          | x :: xs' when i < n -> take (i + 1) xs' (x :: taken)
          | _ -> (List.rev taken, xs)
        in
        let batch, rest = take 0 rest [] in
        go (batch :: acc) rest
  in
  go [] stream

let batch_equivalence { case; _ } =
  let registrations, stream = synthetic_stream case in
  let drive ?stage ~shards deliver =
    let v = bare_validator ?stage case ~shards in
    List.iter
      (fun (taint, primary, secondaries) ->
        Validator.register_external v ~taint ~at:Time.zero ~primary
          ~secondaries)
      registrations;
    deliver v;
    Validator.flush v;
    (* Batch counters record how the stream was cut; every other
       counter must not notice. *)
    ( Run.fingerprint_of_validator v,
      List.filter
        (fun (c, _) -> c <> Jury.Counter.Batch && c <> Batch_response)
        (Validator.counters v) )
  in
  let per_event =
    drive ~shards:1 (fun v -> List.iter (Validator.deliver v) stream)
  in
  let one_batch = drive ~shards:1 (fun v -> Validator.deliver_batch v stream) in
  let chunked =
    drive ~shards:1 (fun v ->
        let rng = Rng.create (case.Case.case_seed lxor 0x0c_4a_11) in
        List.iter (Validator.deliver_batch v) (chunk rng stream))
  in
  let sharded = drive ~shards:4 (fun v -> Validator.deliver_batch v stream) in
  (* Overload epochs are global, which the stage does not support. *)
  let staged =
    if case.Case.max_inflight <> None then None
    else
      (* Throwaway pool, shut down as in [parallel_identity]. *)
      let pool = Jury_par.Pool.create ~jobs:2 () in
      Fun.protect
        ~finally:(fun () -> Jury_par.Pool.shutdown pool)
        (fun () ->
          Some
            (drive ~stage:pool ~shards:4 (fun v ->
                 Validator.deliver_batch v stream)))
  in
  let compare_to label (fp', counters') =
    let fp, counters = per_event in
    match Run.diff_fingerprint fp fp' with
    | Some diff -> Some (Printf.sprintf "%s: %s" label diff)
    | None ->
        Option.map
          (Printf.sprintf "%s: counters diverged: %s" label)
          (Run.diff_counters counters counters')
  in
  match
    List.filter_map Fun.id
      [ compare_to "one-batch" one_batch;
        compare_to "chunked" chunked;
        compare_to "sharded-batch" sharded;
        Option.bind staged (compare_to "staged-batch") ]
  with
  | [] -> Pass
  | msg :: _ -> Fail msg

(* --- parallel ----------------------------------------------------- *)

let parallel_identity { case; execute; _ } =
  (* A trimmed copy keeps the mini-sweep cheap: the invariant is about
     the pool, not the workload size. *)
  let trimmed =
    { case with
      Case.duration_ms = min case.Case.duration_ms 300;
      rate = Float.min case.Case.rate 400.;
      faults =
        List.filter (fun (f : Case.fault_event) -> f.Case.at_ms <= 300)
          case.Case.faults }
  in
  let seeds = [ case.Case.case_seed; case.Case.case_seed + 7919 ] in
  let sweep jobs =
    (* Throwaway pool: shut it down or every checked case parks a
       worker domain until process exit and a long battery runs into
       the runtime's domain cap. *)
    let pool = Jury_par.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Jury_par.Pool.shutdown pool)
      (fun () ->
        Jury_par.Pool.map_ordered pool seeds (fun seed ->
            (execute { trimmed with Case.case_seed = seed }).Run.fp))
  in
  let serial = sweep 1 and parallel = sweep 2 in
  let rec first_diff i = function
    | [], [] -> Pass
    | a :: xs, b :: ys -> (
        match Run.diff_fingerprint a b with
        | None -> first_diff (i + 1) (xs, ys)
        | Some d -> failf "sweep point %d: %s" i d)
    | _ -> Fail "sweep result lists have different lengths"
  in
  first_diff 0 (serial, parallel)

(* --- channel ------------------------------------------------------ *)

let channel_conservation { case; base; _ } =
  let o = Lazy.force base in
  let link_ok (name, (s : Jury.Channel.stats)) =
    if s.Jury.Channel.sent <> s.Jury.Channel.delivered + s.Jury.Channel.dropped
    then
      Some
        (Printf.sprintf "%s: sent=%d <> delivered=%d + dropped=%d" name
           s.Jury.Channel.sent s.Jury.Channel.delivered s.Jury.Channel.dropped)
    else if s.Jury.Channel.dropped > 0 && case.Case.drop = 0. then
      Some (Printf.sprintf "%s: drops on a drop-free channel" name)
    else if s.Jury.Channel.duplicated > 0 && case.Case.duplicate = 0. then
      Some (Printf.sprintf "%s: duplicates on a duplicate-free channel" name)
    else None
  in
  match List.filter_map link_ok o.Run.links with
  | msg :: _ -> Fail msg
  | [] ->
      let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 o.Run.links in
      all_pass
        [ (o.Run.totals.Jury.Channel.sent = sum (fun s -> s.Jury.Channel.sent),
           "channel totals disagree with the per-link sum");
          (case.Case.retries > 0 || o.Run.totals.Jury.Channel.retransmitted = 0,
           "retransmissions recorded with retransmit disabled");
          (case.Case.retries > 0 || Run.count o Retransmit = 0,
           "validator retransmit count nonzero with retransmit disabled") ]

(* --- policy ------------------------------------------------------- *)

(* Independent of the deployment run (never forces [base]): draws a
   rule set and a query batch from the case seed and requires the
   compiled decision structure to agree with the reference interpreter
   verdict-for-verdict, before and after a mid-stream add_rule. *)
let policy_equivalence { case; _ } =
  match Policy_gen.diff ~seed:case.Case.case_seed with
  | None -> Pass
  | Some msg -> failf "compiled <> interpreted: %s" msg

(* The catalog lives in {!Registry}; this module only defines the
   invariant checks and the context they run against. *)

let check_run ~oracles c =
  List.filter_map
    (fun o ->
      match o.check c with
      | Pass -> None
      | Fail msg -> Some (o, msg)
      | exception e ->
          Some
            (o, Printf.sprintf "oracle raised %s" (Printexc.to_string e)))
    oracles

let check_case ~oracles case = check_run ~oracles (ctx case)
