(* One plan per trigger: the deployment's [Plans] table, through which
   the k+1 executions of a trigger report one shared action list. *)

open Jury_sim
module Types = Jury_controller.Types
module Taint = Types.Taint
module Of_message = Jury_openflow.Of_message
module Response = Jury.Response
module Plans = Jury.Deployment.Plans

let check_bool = Alcotest.(check bool)

(* One execution as the validator received it. *)
type execution = {
  controller : int;
  role : [ `Primary | `Secondary ];
  snapshot : Jury.Snapshot.t;
  sent_at : Time.t;  (* when its replica looked its plan up *)
  actions : Types.action list;
}

(* A clean k=6 ONOS run, or one with [mutate] armed on [faulty]: every
   Execution response of each trigger replicated after boot, keyed by
   taint, oldest first, and every verdict. *)
let run ?faulty () =
  let env =
    Jury_experiments.Setup.make ~seed:5 ~switches:6
      ~jury:(Jury.Jury_config.make ~k:6 ())
      ~profile:Jury_controller.Profile.onos ~nodes:7 ()
  in
  let v = Jury_experiments.Setup.validator env in
  let executions = Taint.Table.create 256 in
  let verdicts = Taint.Table.create 256 in
  Jury.Validator.on_response v (fun (r : Response.t) ->
      match r.body with
      | Response.Execution { role; actions } ->
          let e =
            { controller = r.controller; role; snapshot = r.snapshot;
              sent_at = r.sent_at; actions }
          in
          let seen =
            Option.value ~default:[] (Taint.Table.find_opt executions r.taint)
          in
          Taint.Table.replace executions r.taint (seen @ [ e ])
      | _ -> ());
  Jury.Validator.on_verdict v (fun (a : Jury.Alarm.t) ->
      Taint.Table.replace verdicts a.taint a);
  Option.iter
    (fun (node, mutate) ->
      Jury_controller.Controller.set_mutator
        (Jury_controller.Cluster.controller env.cluster node)
        (Some mutate))
    faulty;
  Jury_workload.Flows.new_connections env.network ~rng:env.rng ~rate:200.
    ~duration:(Time.sec 1) ~mode:Jury_workload.Flows.Any_pair ();
  Jury_experiments.Setup.run_for env (Time.sec 2);
  (executions, verdicts)

let clean = lazy (fst (run ()))

(* The triggers whose seven executions all arrived and took one
   non-empty plan: the taint, the primary's execution, the rest. *)
let agreeing () =
  Taint.Table.fold
    (fun taint execs acc ->
      match List.partition (fun e -> e.role = `Primary) execs with
      | [ prim ], rest
        when List.length rest = 6 && prim.actions <> []
             && List.for_all (fun e -> e.actions = prim.actions) rest ->
          (taint, prim, rest) :: acc
      | _ -> acc)
    (Lazy.force clean) []

let flow_mods plan =
  List.length
    (List.filter
       (function
         | Types.Network_send { payload = Of_message.Flow_mod _; _ } -> true
         | _ -> false)
       plan)

let slot taint = Taint.hash taint land (Plans.slots - 1)

(* The taints whose slot another trigger's lookup claimed while their
   own executions were being looked up: the direct-mapped table hands a
   slot to the newest taint, so their later executions cannot share
   with the earlier ones. *)
let disturbed runs =
  let lookups = Hashtbl.create 256 in
  Taint.Table.iter
    (fun taint execs ->
      (* Only replicated triggers' plans are looked up. *)
      if Taint.is_external taint then
        List.iter
          (fun e -> Hashtbl.add lookups (slot taint) (taint, e.sent_at))
          execs)
    runs;
  let hit = Taint.Table.create 16 in
  Taint.Table.iter
    (fun taint execs ->
      let times = List.map (fun e -> Time.to_ns e.sent_at) execs in
      let lo = List.fold_left min max_int times
      and hi = List.fold_left max min_int times in
      if
        List.exists
          (fun (other, at) ->
            (not (Taint.equal other taint))
            && Time.to_ns at >= lo && Time.to_ns at <= hi)
          (Hashtbl.find_all lookups (slot taint))
      then Taint.Table.replace hit taint ())
    runs;
  hit

(* (a) The executions of an agreeing trigger report the one list the
   first of them claimed, not seven equal copies, unless another
   trigger took the slot in between. *)
let test_agreeing_share () =
  let runs = Lazy.force clean in
  let disturbed = disturbed runs in
  let triggers =
    List.filter
      (fun (taint, _, _) -> not (Taint.Table.mem disturbed taint))
      (agreeing ())
  in
  check_bool "many undisturbed agreeing triggers" true
    (List.length triggers > 50
    && Taint.Table.length disturbed * 20 < List.length triggers);
  List.iter
    (fun (_, prim, rest) ->
      List.iter
        (fun e -> check_bool "one shared list" true (e.actions == prim.actions))
        rest)
    triggers

(* (d) What the validator keeps of a path install's seven executions is
   about one plan, not seven. *)
let test_retention () =
  let disturbed = disturbed (Lazy.force clean) in
  let installs (taint, prim, _) =
    flow_mods prim.actions > 0 && not (Taint.Table.mem disturbed taint)
  in
  match List.find_opt installs (agreeing ()) with
  | None -> Alcotest.fail "no path install"
  | Some (_, prim, rest) ->
      let one = Obj.reachable_words (Obj.repr prim.actions) in
      let all =
        Obj.reachable_words
          (Obj.repr (List.map (fun e -> e.actions) (prim :: rest)))
      in
      check_bool
        (Printf.sprintf "seven lists: %d words <= 1.5 x %d" all one)
        true
        (float_of_int all <= 1.5 *. float_of_int one)

(* (b) A replica whose mutator rewrites its FLOW_MODs reports what it
   planned, and wherever a majority of its view took the primary's plan
   the verdict blames it. *)
let test_faulty_keeps_own () =
  let faulty = 3 in
  let planned = ref [] in
  let mutate trigger actions =
    let mine = Jury_faults.Injector.blackhole_flow_mods trigger actions in
    planned := mine :: !planned;
    mine
  in
  let executions, verdicts = run ~faulty:(faulty, mutate) () in
  let outvoted = ref 0 in
  Taint.Table.iter
    (fun taint execs ->
      List.iter
        (fun e ->
          if e.controller = faulty then
            check_bool "reports its own plan" true
              (List.exists (( = ) e.actions) !planned))
        execs;
      match List.partition (fun e -> e.role = `Primary) execs with
      | [ prim ], secondaries ->
          let voters =
            prim
            :: List.filter
                 (fun e -> Jury.Snapshot.equal e.snapshot prim.snapshot)
                 secondaries
          in
          let agree =
            List.filter (fun e -> e.actions = prim.actions) voters
          in
          if
            List.exists
              (fun e -> e.controller = faulty && e.actions <> prim.actions)
              voters
            && 2 * List.length agree > List.length voters
          then begin
            incr outvoted;
            match Taint.Table.find_opt verdicts taint with
            | None -> Alcotest.fail "an outvoted replica went undecided"
            | Some a ->
                check_bool "the faulty replica is blamed" true
                  (List.mem faulty a.Jury.Alarm.suspects)
          end
      | _ -> ())
    executions;
  check_bool "the fault showed" true (!outvoted > 0)

(* The taints of [n] external triggers whose hashes share one slot, and
   of [n] more anywhere. *)
let taints n =
  let slot t = Taint.hash t land (Plans.slots - 1) in
  let minted =
    List.init 20_000 (fun s -> Taint.external_trigger ~primary:1 ~serial:s)
  in
  let target = slot (List.hd minted) in
  let colliding = List.filter (fun t -> slot t = target) minted in
  Array.of_list
    (List.filteri (fun i _ -> i < n) colliding
    @ List.filteri (fun i _ -> i < n) (List.tl minted))

(* The differential test's plans: agreeing, differing, differing only
   in a buffer id or in action order. *)
let plans = Array.of_list Test_decide.plans

(* A fresh copy, as each replica builds its own. *)
let copy plan = List.map Fun.id plan

(* (c) Whatever the order of lookups and however the taints collide,
   the answer is the replica's own plan, structurally. *)
let prop_share_is_own_plan =
  let taints = taints 4 in
  QCheck.Test.make ~name:"a shared plan equals the replica's own" ~count:500
    QCheck.(
      list_of_size Gen.(int_range 1 200)
        (pair
           (int_bound (Array.length taints - 1))
           (int_bound (Array.length plans - 1))))
    (fun steps ->
      let table = Plans.create () in
      List.for_all
        (fun (t, p) ->
          let mine = copy plans.(p) in
          Plans.share table taints.(t) mine = mine)
        steps)

(* A lookup shares an equal plan, keeps an unequal one, and hands the
   slot to a colliding taint; whichever it does, it allocates nothing. *)
let test_share_in_place () =
  let taints = taints 2 in
  let a = copy plans.(5) and a' = copy plans.(5) and b = copy plans.(7) in
  let table = Plans.create () in
  check_bool "the first plan claims the slot" true
    (Plans.share table taints.(0) a == a);
  check_bool "an equal plan gets the claimed list" true
    (Plans.share table taints.(0) a' == a);
  check_bool "an unequal plan keeps its own" true
    (Plans.share table taints.(0) b == b);
  check_bool "a colliding taint takes the slot" true
    (Plans.share table taints.(1) a' == a'
    && Plans.share table taints.(0) a == a);
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Plans.share table taints.(0) a'));
    ignore (Sys.opaque_identity (Plans.share table taints.(0) b));
    ignore (Sys.opaque_identity (Plans.share table taints.(1) b))
  done;
  let words = (Gc.minor_words () -. before) /. 3000. in
  check_bool (Printf.sprintf "%.3f words per lookup" words) true (words < 0.1)

let suite =
  [ ("agreeing executions share one list", `Quick, test_agreeing_share);
    ("a faulty replica keeps its own list", `Quick, test_faulty_keeps_own);
    ("a lookup shares in place", `Quick, test_share_in_place);
    ("seven executions retain one plan", `Quick, test_retention);
    QCheck_alcotest.to_alcotest prop_share_is_own_plan ]
