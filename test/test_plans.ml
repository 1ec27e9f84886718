(* One plan per trigger: the deployment's plan table, in which the first
   execution of a trigger records its plan and every read it made, and
   every later execution takes that plan when each read still gets the
   same answer on its own replica. *)

open Jury_sim
module Types = Jury_controller.Types
module Taint = Types.Taint
module Controller = Jury_controller.Controller
module Cluster = Jury_controller.Cluster
module Plans = Controller.Plans
module Profile = Jury_controller.Profile
module Values = Jury_controller.Values
module Of_message = Jury_openflow.Of_message
module Dpid = Jury_openflow.Of_types.Dpid
module Fabric = Jury_store.Fabric
module Names = Jury_store.Cache_names
module Event = Jury_store.Event
module Builder = Jury_topo.Builder
module Graph = Jury_topo.Graph
module Frame = Jury_packet.Frame
module Mac = Jury_packet.Addr.Mac
module Ipv4 = Jury_packet.Addr.Ipv4
module Response = Jury.Response

let check_bool = Alcotest.(check bool)

(* One execution as the validator received it. *)
type execution = {
  controller : int;
  role : [ `Primary | `Secondary ];
  snapshot : Jury.Snapshot.t;
  sent_at : Time.t;  (* when its replica looked its plan up *)
  actions : Types.action list;
}

(* The controller an execution of [trigger] at [ctrl] plans as: the
   switch's master for a southbound trigger, which is the primary the
   replicator minted its taint for while mastership stays put; the
   replica itself for an internal trigger, which only its origin
   runs. *)
let as_id_of cluster ctrl = function
  | Types.Packet_in (dpid, _)
  | Types.Port_status (dpid, _)
  | Types.Switch_join (dpid, _)
  | Types.Flow_removed (dpid, _) ->
      Cluster.master_of cluster dpid
  | Types.Internal _ -> Controller.id ctrl
  | Types.Rest _ -> Alcotest.fail "no REST trigger in this workload"

(* What the exactness differential counted. *)
type differential = { mutable executions : int; mutable mismatches : int }

(* A clean k=6 ONOS run, or one with [mutate] armed on [faulty]: every
   Execution response of each trigger replicated after boot, keyed by
   taint, oldest first, and every verdict. With [differential], every
   replica's execution also compares the table's answer with a fresh
   [plan_as] on that replica at that instant, before [mutate] runs;
   [flap] takes the faulty replica's liveness link down and up again
   every second. *)
let run ?faulty ?differential ?(flap = false) () =
  let env =
    Jury_experiments.Setup.make ~seed:5 ~switches:6
      ~jury:(Jury.Jury_config.make ~k:6 ())
      ~profile:Profile.onos ~nodes:7 ()
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
  Array.iter
    (fun ctrl ->
      let mutate =
        match faulty with
        | Some (node, mutate) when node = Controller.id ctrl -> Some mutate
        | _ -> None
      in
      match differential with
      | None -> Controller.set_mutator ctrl mutate
      | Some d ->
          let mutate = Option.value mutate ~default:(fun _ actions -> actions) in
          Controller.set_mutator ctrl
            (Some
               (fun trigger actions ->
                 d.executions <- d.executions + 1;
                 let as_id = as_id_of env.cluster ctrl trigger in
                 if Controller.plan_as ctrl ~as_id trigger <> actions then
                   d.mismatches <- d.mismatches + 1;
                 mutate trigger actions)))
    (Cluster.controllers env.cluster);
  (match faulty with
  | Some (node, _) when flap ->
      (* A link whose liveness master is [node]: the higher-id master of
         its two switches, [node] mastering one. *)
      let link =
        List.find
          (fun (e : Graph.edge) ->
            let ma = Cluster.master_of env.cluster e.a.dpid
            and mb = Cluster.master_of env.cluster e.b.dpid in
            max ma mb = node && (ma = node || mb = node))
          (Graph.edges (Jury_net.Network.plan env.network).Builder.graph)
      in
      ignore
        (Engine.every env.engine ~period:(Time.sec 1) ~jitter:Time.zero
           ~footprint:Footprint.opaque (fun () ->
             Jury_net.Network.take_link_down env.network link.a link.b;
             Engine.schedule env.engine ~after:(Time.ms 500) (fun () ->
                 Jury_net.Network.bring_link_up env.network link.a link.b)))
  | _ -> ());
  Jury_workload.Flows.new_connections env.network ~rng:env.rng ~rate:200.
    ~duration:(Time.sec 1) ~mode:Jury_workload.Flows.Any_pair ();
  Jury_experiments.Setup.run_for env (Time.sec 2);
  let plans =
    Jury.Deployment.plans (Option.get env.Jury_experiments.Setup.deployment)
  in
  (executions, verdicts, plans)

let clean =
  lazy
    (let d = { executions = 0; mismatches = 0 } in
     let executions, _, plans = run ~differential:d () in
     (executions, d, plans))

let executions () =
  let e, _, _ = Lazy.force clean in
  e

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
    (executions ()) []

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
   slot to the newest taint, so their later executions cannot reuse
   the earlier ones' plan. *)
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
   first of them recorded, not seven equal copies, unless another
   trigger took the slot in between. *)
let test_agreeing_share () =
  let runs = executions () in
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
  let disturbed = disturbed (executions ()) in
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
  let executions, verdicts, _ = run ~faulty:(faulty, mutate) () in
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

(* --- The exactness differential --- *)

let check_differential what d =
  check_bool
    (Printf.sprintf "%s: %d executions checked" what d.executions)
    true (d.executions > 4000);
  Alcotest.(check int)
    (what ^ ": executions whose answer differs from a fresh plan") 0
    d.mismatches

(* (e) On a clean k=6 run, every execution's answer is the plan its
   replica would make, and nearly every later execution reuses the
   first one's. *)
let test_differential_clean () =
  let _, d, plans = Lazy.force clean in
  check_differential "clean" d;
  let later = Plans.lookups plans - Plans.claims plans in
  let share = float_of_int (Plans.reused plans) /. float_of_int later in
  check_bool
    (Printf.sprintf "%d of %d later executions reuse a plan (%.1f%%)"
       (Plans.reused plans) later (100. *. share))
    true (share >= 0.95)

(* (f) The same with a replica losing half of its LINKSDB writes (the
   link-detection-inconsistent lever) while its liveness link flaps:
   the mutator runs on the table's answer, per replica, and what it
   rewrites is never recorded. *)
let test_differential_links_dropped () =
  let d = { executions = 0; mismatches = 0 } in
  let mutate =
    Jury_faults.Injector.probabilistic (Rng.create 11) 0.5
      (Jury_faults.Injector.drop_cache_writes_to ~cache:Names.linksdb)
  in
  let _, _, plans = run ~faulty:(3, mutate) ~differential:d ~flap:true () in
  check_differential "LINKSDB writes dropped" d;
  check_bool "some plans reused" true (Plans.reused plans > 0)

(* --- Directed cases on a three-replica store --- *)

(* Three replicas of one 4-switch line, each store written on its own
   (a standalone fabric replicates nothing), every switch mastered by
   node 0, every host known; the controllers share one plan table and
   one table of views, as a cluster's do. *)
let topology = Builder.linear ~switches:4 ~hosts_per_switch:1

let replicas () =
  let engine = Engine.create ~seed:5 () in
  let fabric =
    Fabric.create engine ~consistency:Fabric.Eventual ~nodes:3
      ~standalone:true ()
  in
  for node = 0 to 2 do
    Test_controller.write_topology fabric ~node topology
  done;
  let plans = Plans.create () in
  let flow_memo = Values.Flow.Memo.create () in
  let views = Controller.Views.create () in
  let ctrls =
    Array.init 3 (fun id ->
        let c =
          Controller.create engine ~id ~profile:Profile.onos ~fabric ~flow_memo
            ~views
        in
        Controller.set_plans c plans;
        c)
  in
  (fabric, plans, ctrls)

let host i = List.nth topology.Builder.hosts i
let addr (h : Builder.host_slot) =
  (Mac.of_host_index h.host_index, Ipv4.of_host_index h.host_index)

let ipv4 i j =
  let h = host i in
  Test_controller.packet_in ~in_port:h.port h.dpid
    (Frame.tcp_packet ~src:(addr h) ~dst:(addr (host j)) ~src_port:7
       ~dst_port:80 ())

let arp_request i j =
  let h = host i in
  Test_controller.packet_in ~in_port:h.port h.dpid
    (Frame.arp_request ~sender:(addr h) ~target:(snd (addr (host j))))

let arp_reply i j =
  let h = host i in
  Test_controller.packet_in ~in_port:h.port h.dpid
    (Frame.arp_reply ~sender:(addr h) ~target:(addr (host j)))

(* The LLDP probe emitted at one end of link [i] and heard at the other. *)
let lldp i =
  let e = List.nth (Graph.edges topology.Builder.graph) i in
  Test_controller.packet_in ~in_port:e.b.port e.b.dpid
    (Frame.lldp_frame ~src:(Mac.of_host_index 0xFFFF)
       (Jury_packet.Lldp.make ~chassis_id:(Dpid.to_int64 e.a.dpid)
          ~port_id:e.a.port ~ttl:120 ()))

let port_down i =
  let h = host i in
  Types.Port_status
    ( h.dpid,
      { Of_message.ps_reason = Of_message.Port_modify; ps_port = h.port;
        ps_link_up = false } )

let link_key i =
  let e = List.nth (Graph.edges topology.Builder.graph) i in
  Values.Link.key (e.a.dpid, e.a.port) (e.b.dpid, e.b.port)

let taint serial = Taint.external_trigger ~primary:0 ~serial

(* (c) A later execution on another replica reports the recorded list
   itself, and reusing it allocates nothing. *)
let test_share_in_place () =
  let _, plans, ctrls = replicas () in
  let trigger = ipv4 0 3 and taint = taint 1 in
  let execute c = Controller.shadow_execute c ~as_id:0 ~taint trigger in
  let first = execute ctrls.(0) in
  check_bool "a path install" true (flow_mods first = 1);
  check_bool "another replica reports the recorded list" true
    (execute ctrls.(1) == first && execute ctrls.(2) == first);
  let reused = Plans.reused plans in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (execute ctrls.(1)))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every lookup reused" (reused + 1000)
    (Plans.reused plans);
  check_bool
    (Printf.sprintf "%.0f words over 1000 reuses" words)
    true (words < 1.)

(* (g) A failover re-drives an LLDP PACKET_IN with the same taint to a
   new primary: planned as the link's liveness master it writes the
   link, planned as another controller it writes nothing, and the table
   answers each as its own. *)
let test_failover_as_id () =
  let fabric, _, ctrls = replicas () in
  (* Node 1 has lost the link, so its liveness master would write it. *)
  ignore
    (Fabric.write fabric ~node:1 ~cache:Names.linksdb Event.Delete
       ~key:(link_key 1) ~value:"");
  let trigger = lldp 1 and taint = taint 2 in
  let execute as_id =
    Controller.shadow_execute ctrls.(1) ~as_id ~taint trigger
  in
  (* Every switch is mastered by node 0, so node 0 is the liveness
     master. *)
  let as_master = execute 0 in
  check_bool "the liveness master writes the link" true (as_master <> []);
  check_bool "planned as another controller" true
    (execute 2 = Controller.plan_as ctrls.(1) ~as_id:2 trigger);
  check_bool "another controller writes nothing" true (execute 2 = []);
  check_bool "back to the master" true (execute 0 = as_master)

(* --- The table against fresh plans, under any interleaving --- *)

type step =
  | Execute of int * int * int * int  (* replica, taint, as_id, trigger *)
  | Learn of int * int  (* replica, trigger: apply its plan's writes *)
  | Scribble of int * int  (* replica, trigger: garble its plan's writes *)
  | Drop_link of int * int  (* replica, link *)
  | Restore_link of int * int
  | Move_host of int * int * int  (* replica, host, switch *)
  | Forget_host of int * int
  | Remaster of int * int * int  (* replica, switch, master *)

let triggers =
  Array.of_list
    (List.concat
       [ [ ipv4 0 3; ipv4 3 0; ipv4 1 2; ipv4 2 2 ];
         [ arp_request 0 1; arp_request 3 2; arp_reply 1 0; arp_reply 2 3 ];
         [ lldp 0; lldp 1; lldp 2 ];
         [ port_down 1 ] ])

(* Two taints share a slot; the third has one of its own. *)
let taints =
  let minted = List.init 20_000 (fun s -> taint s) in
  let a = List.hd minted in
  let b =
    List.find (fun t -> slot t = slot a && not (Taint.equal t a)) minted
  in
  let c = List.find (fun t -> slot t <> slot a) minted in
  [| a; b; c |]

let gen_step =
  let open QCheck.Gen in
  let replica = int_bound 2 and trigger = int_bound (Array.length triggers - 1)
  and link = int_bound 2 and host = int_bound 3 and switch = int_bound 3 in
  frequency
    [ ( 8,
        map
          (fun (((r, t), a), g) -> Execute (r, t, a, g))
          (pair (pair (pair replica (int_bound 2)) replica) trigger) );
      (2, map2 (fun r g -> Learn (r, g)) replica trigger);
      (1, map2 (fun r g -> Scribble (r, g)) replica trigger);
      (1, map2 (fun r l -> Drop_link (r, l)) replica link);
      (1, map2 (fun r l -> Restore_link (r, l)) replica link);
      (1, map3 (fun r h s -> Move_host (r, h, s)) replica host switch);
      (1, map2 (fun r h -> Forget_host (r, h)) replica host);
      (1, map3 (fun r s m -> Remaster (r, s, m)) replica switch replica) ]

let print_step = function
  | Execute (r, t, a, g) -> Printf.sprintf "execute@%d(taint %d, as %d, #%d)" r t a g
  | Learn (r, g) -> Printf.sprintf "learn@%d(#%d)" r g
  | Scribble (r, g) -> Printf.sprintf "scribble@%d(#%d)" r g
  | Drop_link (r, l) -> Printf.sprintf "drop-link@%d(%d)" r l
  | Restore_link (r, l) -> Printf.sprintf "restore-link@%d(%d)" r l
  | Move_host (r, h, s) -> Printf.sprintf "move-host@%d(%d to %d)" r h s
  | Forget_host (r, h) -> Printf.sprintf "forget-host@%d(%d)" r h
  | Remaster (r, s, m) -> Printf.sprintf "remaster@%d(%d to %d)" r s m

(* (h) Whatever the replicas' stores hold, whatever the order of
   lookups and however taints, triggers and [as_id]s pair up, the
   table's answer is the replica's own plan, structurally. *)
let prop_share_is_own_plan =
  QCheck.Test.make ~name:"a shared plan equals the replica's own" ~count:150
    (QCheck.make
       ~print:QCheck.Print.(list print_step)
       QCheck.Gen.(list_size (int_range 1 80) gen_step))
    (fun steps ->
      let fabric, _, ctrls = replicas () in
      let write node cache op key value =
        ignore (Fabric.write fabric ~node ~cache op ~key ~value)
      in
      let writes node trigger f =
        List.iter
          (function
            | Types.Cache_write { cache; op; key; value } -> f cache op key value
            | Types.Network_send _ -> ())
          (Controller.plan ctrls.(node) triggers.(trigger))
      in
      let switch i = (host i).dpid in
      List.for_all
        (function
          | Execute (r, t, as_id, g) ->
              let c = ctrls.(r) and trigger = triggers.(g) in
              Controller.shadow_execute c ~as_id ~taint:taints.(t) trigger
              = Controller.plan_as c ~as_id trigger
          | Learn (r, g) ->
              writes r g (write r);
              true
          | Scribble (r, g) ->
              writes r g (fun cache _ key _ ->
                  write r cache Event.Update key "scribbled");
              true
          | Drop_link (r, l) ->
              write r Names.linksdb Event.Delete (link_key l) "";
              true
          | Restore_link (r, l) ->
              write r Names.linksdb Event.Create (link_key l)
                Values.Link.value_up;
              true
          | Move_host (r, h, s) ->
              let mac, ip = addr (host h) in
              write r Names.hostdb Event.Update (Values.Host.key mac)
                (Values.Host.value ~dpid:(switch s) ~port:(host s).port ~ip);
              true
          | Forget_host (r, h) ->
              write r Names.hostdb Event.Delete
                (Values.Host.key (fst (addr (host h))))
                "";
              true
          | Remaster (r, s, m) ->
              write r Names.masterdb Event.Update
                (Values.Master.key (switch s))
                (Values.Master.value m);
              true)
        steps)

let suite =
  [ ("agreeing executions share one list", `Quick, test_agreeing_share);
    ("a faulty replica keeps its own list", `Quick, test_faulty_keeps_own);
    ("a lookup shares in place", `Quick, test_share_in_place);
    ("seven executions retain one plan", `Quick, test_retention);
    QCheck_alcotest.to_alcotest prop_share_is_own_plan;
    ("exactness differential, clean run", `Quick, test_differential_clean);
    ( "exactness differential, LINKSDB writes dropped",
      `Quick,
      test_differential_links_dropped );
    ("a failover re-drive plans as its new primary", `Quick, test_failover_as_id)
  ]
