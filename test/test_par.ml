(* Tests for the jury_par domain pool and the parallel-experiment
   contract: result ordering, per-task exception capture,
   serial-vs-parallel byte-identity of seeded sweeps, packed vs legacy
   flow-table index keys, and the root-RNG draw-order pin for
   Engine.every ~jitter. *)

module Pool = Jury_par.Pool
module Of_match = Jury_openflow.Of_match
module Of_message = Jury_openflow.Of_message
module Flow_table = Jury_openflow.Flow_table
module Frame = Jury_packet.Frame
module Mac = Jury_packet.Addr.Mac
module Ipv4 = Jury_packet.Addr.Ipv4
module Time = Jury_sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Pool basics --- *)

let test_map_ordered_order () =
  let pool = Pool.create ~jobs:4 () in
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "squares in submission order"
    (List.map (fun i -> i * i) xs)
    (Pool.map_ordered pool xs (fun i -> i * i))

let test_map_ordered_degenerate () =
  let serial = Pool.create ~jobs:1 () in
  Alcotest.(check (list int)) "jobs=1" [ 2; 3; 4 ]
    (Pool.map_ordered serial [ 1; 2; 3 ] succ);
  Alcotest.(check (list int)) "empty input" []
    (Pool.map_ordered (Pool.create ~jobs:4 ()) [] succ);
  check_int "jobs clamped to 1" 1 (Pool.jobs (Pool.create ~jobs:0 ()))

let test_exception_capture () =
  let pool = Pool.create ~jobs:3 () in
  let results =
    Pool.try_map_ordered pool [ 0; 1; 2; 3; 4 ] (fun i ->
        if i mod 2 = 1 then failwith (Printf.sprintf "config %d died" i)
        else i * 10)
  in
  check_int "one result per task" 5 (List.length results);
  List.iteri
    (fun i r ->
      match r with
      | Ok v ->
          check_bool "survivor parity" true (i mod 2 = 0);
          check_int "survivor value" (i * 10) v
      | Error e ->
          check_bool "failure parity" true (i mod 2 = 1);
          check_int "failed task index" i e.Pool.task_index;
          check_bool "message names the config" true
            (e.Pool.message = Printf.sprintf "Failure(\"config %d died\")" i
            || String.length e.Pool.message > 0))
    results

let test_map_ordered_raises_with_indices () =
  let pool = Pool.create ~jobs:2 () in
  match
    Pool.map_ordered pool [ 0; 1; 2; 3 ] (fun i ->
        if i = 1 || i = 3 then raise Not_found else i)
  with
  | _ -> Alcotest.fail "expected Tasks_failed"
  | exception Pool.Tasks_failed errors ->
      Alcotest.(check (list int))
        "all failed indices, in order" [ 1; 3 ]
        (List.map (fun e -> e.Pool.task_index) errors)

let test_persistent_worker_reuse () =
  (* Satellite contract: one pool pays its domain spawns once, not per
     map_ordered call. Sweep the same pool many times and require the
     process-wide spawn counter to move by at most jobs - 1. *)
  let pool = Pool.create ~jobs:3 () in
  let before = Pool.domains_spawned () in
  for round = 1 to 20 do
    let xs = List.init 16 (fun i -> (round * 100) + i) in
    Alcotest.(check (list int))
      "round results" (List.map succ xs)
      (Pool.map_ordered pool xs succ)
  done;
  let spawned = Pool.domains_spawned () - before in
  check_bool
    (Printf.sprintf "spawns bounded by jobs-1 (got %d)" spawned)
    true (spawned <= 2);
  check_bool "workers persisted" true (Pool.persistent_workers pool >= 1)

let test_shutdown () =
  (* A throwaway pool must release its worker domains on shutdown —
     otherwise a loop of short-lived pools (one per fuzz case) parks
     domains until process exit and hits the runtime's domain cap. *)
  let pool = Pool.create ~jobs:3 () in
  let xs = List.init 16 Fun.id in
  Alcotest.(check (list int))
    "sweep before shutdown" (List.map succ xs)
    (Pool.map_ordered pool xs succ);
  check_bool "workers attached" true (Pool.persistent_workers pool >= 1);
  Pool.shutdown pool;
  check_int "workers joined" 0 (Pool.persistent_workers pool);
  Pool.shutdown pool (* idempotent *);
  let before = Pool.domains_spawned () in
  Alcotest.(check (list int))
    "post-shutdown sweep degrades to serial" (List.map succ xs)
    (Pool.map_ordered pool xs succ);
  check_int "no respawn after shutdown" before (Pool.domains_spawned ())

(* --- Serial vs parallel byte-identity --- *)

let test_fig4a_serial_parallel_identical () =
  (* Same seeds, different worker counts: the sweep must return the
     exact same structure (labels, sample counts, every CDF point). *)
  let duration = Time.ms 1500 and rate = 800. in
  let serial =
    Jury_experiments.Figures.fig4a ~pool:(Pool.create ~jobs:1 ()) ~duration
      ~rate ()
  in
  let parallel =
    Jury_experiments.Figures.fig4a ~pool:(Pool.create ~jobs:3 ()) ~duration
      ~rate ()
  in
  check_int "series count" (List.length serial) (List.length parallel);
  check_bool "structurally identical" true (serial = parallel);
  check_bool "non-trivial" true
    (List.exists
       (fun (s : Jury_experiments.Figures.cdf_series) -> s.samples > 0)
       serial)

let test_run_matrix_serial_parallel_identical () =
  let scenarios =
    [ Jury_faults.Scenarios.link_failure;
      List.hd Jury_faults.Scenarios.all ]
  in
  let project results =
    (* Scenarios carry closures, so compare the plain-data projection. *)
    List.map
      (fun ((s : Jury_faults.Scenarios.t), reports) ->
        ( s.Jury_faults.Scenarios.name,
          List.map
            (fun (r : Jury_experiments.Runner.report) ->
              (r.detected, r.detection_time_ms, r.verdict_count))
            reports ))
      results
  in
  let run pool =
    project
      (Jury_experiments.Runner.run_matrix ~pool ~repeats:3 ~switches:8
         scenarios)
  in
  let serial = run (Pool.create ~jobs:1 ()) in
  let parallel = run (Pool.create ~jobs:4 ()) in
  check_bool "matrix identical across worker counts" true (serial = parallel);
  check_int "grouped per scenario" 2 (List.length serial);
  List.iter
    (fun (_, reports) -> check_int "repeats per scenario" 3
        (List.length reports))
    serial

(* --- Packed vs legacy flow-table keys --- *)

let host i = (Mac.of_host_index i, Ipv4.of_host_index i)

let tcp_frame ?(src = 0) ?(dst = 1) ?(sport = 1234) ?(dport = 80) () =
  Frame.tcp_packet ~src:(host src) ~dst:(host dst) ~src_port:sport
    ~dst_port:dport ()

let key_fixture () =
  let exact = Of_match.exact_of_frame ~in_port:3 (tcp_frame ()) in
  [ ("exact /32", exact);
    ( "coarser /24 src",
      { exact with Of_match.nw_src = Some (Ipv4.of_host_index 0, 24) } );
    ( "coarser /0 dst",
      { exact with Of_match.nw_dst = Some (Ipv4.of_host_index 1, 0) } );
    ("nw wildcarded", { exact with Of_match.nw_src = None; nw_dst = None });
    ("no dl_type", { exact with Of_match.dl_type = None });
    ("no in_port", { exact with Of_match.in_port = None });
    ("wildcard all", Of_match.wildcard_all);
    ( "l2 only",
      Of_match.l2_pair ~src:(Mac.of_host_index 0) ~dst:(Mac.of_host_index 1)
    ) ]

let test_key_classification_agrees () =
  (* Invariant 1: the packed key indexes a match iff the legacy string
     key did — including on the /32-vs-coarser prefix boundary. *)
  List.iter
    (fun (name, m) ->
      let legacy = Flow_table.Private.legacy_key_of_match m in
      let packed = Flow_table.Private.packed_key_of_match m in
      check_bool (name ^ ": same indexability") true
        (Option.is_some legacy = Option.is_some packed))
    (key_fixture ());
  let indexable name m expect =
    check_bool name expect
      (Option.is_some (Flow_table.Private.packed_key_of_match m))
  in
  let exact = Of_match.exact_of_frame ~in_port:3 (tcp_frame ()) in
  indexable "/32 prefixes are indexable" exact true;
  indexable "/24 is not"
    { exact with Of_match.nw_src = Some (Ipv4.of_host_index 0, 24) }
    false;
  indexable "nw wildcard still is"
    { exact with Of_match.nw_src = None; nw_dst = None }
    true

let test_key_equality_agrees () =
  (* Invariant 2: legacy-key equality implies packed-key equality (same
     bucket before => same bucket after). *)
  let pairs =
    List.concat_map
      (fun (na, ma) ->
        List.filter_map
          (fun (nb, mb) ->
            match
              ( Flow_table.Private.legacy_key_of_match ma,
                Flow_table.Private.legacy_key_of_match mb )
            with
            | Some la, Some lb when la = lb -> Some (na ^ " / " ^ nb, ma, mb)
            | _ -> None)
          (key_fixture ()))
      (key_fixture ())
  in
  check_bool "fixture has equal-key pairs" true (List.length pairs >= 2);
  List.iter
    (fun (name, ma, mb) ->
      check_bool (name ^ ": packed keys equal") true
        (Flow_table.Private.packed_key_of_match ma
        = Flow_table.Private.packed_key_of_match mb))
    pairs

let test_frame_and_match_keys_agree () =
  (* A frame's direct key must land in the bucket of the exact match a
     reactive controller builds from that frame — that is what makes
     the lookup fast path correct. *)
  List.iter
    (fun frame ->
      let exact = Of_match.exact_of_frame ~in_port:5 frame in
      (match Flow_table.Private.packed_key_of_match exact with
      | None -> Alcotest.fail "exact_of_frame must be indexable"
      | Some k ->
          check_bool "frame key = exact-match key" true
            (k = Flow_table.Private.packed_key_of_frame ~in_port:5 frame));
      check_bool "legacy agrees too" true
        (Flow_table.Private.legacy_key_of_frame ~in_port:5 frame
        = Flow_table.Private.legacy_key_of_match exact))
    [ tcp_frame ();
      tcp_frame ~src:7 ~dst:9 ~sport:53 ~dport:4242 ();
      Frame.udp_packet ~src:(host 2) ~dst:(host 3) ~src_port:68 ~dst_port:67
        () ]

let test_boundary_lookup_and_strict_delete () =
  (* A coarser /24 rule is non-indexable (wildcard store) while the /32
     micro-flow is exact-indexed; lookup must still combine both by
     priority, and a strict delete of the /32 must not touch the /24. *)
  let now = Time.ms 1 in
  let table = Flow_table.create () in
  let frame = tcp_frame () in
  let exact = Of_match.exact_of_frame ~in_port:1 frame in
  let coarse =
    { exact with
      Of_match.nw_src = Some (Ipv4.of_host_index 0, 24);
      tp_src = None;
      tp_dst = None }
  in
  let add m priority =
    match
      Flow_table.apply_flow_mod table ~now
        (Of_message.flow_mod ~priority m [ Jury_openflow.Of_action.Output 2 ])
    with
    | Flow_table.Installed -> ()
    | _ -> Alcotest.fail "install failed"
  in
  add exact 10;
  add coarse 50;
  (match Flow_table.lookup table ~now ~in_port:1 frame with
  | Some e -> check_int "coarser rule wins on priority" 50 e.priority
  | None -> Alcotest.fail "lookup missed");
  (match
     Flow_table.apply_flow_mod table ~now
       (Of_message.flow_mod ~command:Of_message.Delete_strict ~priority:10
          exact [])
   with
  | Flow_table.Removed [ e ] -> check_int "removed the /32" 10 e.priority
  | _ -> Alcotest.fail "strict delete must remove exactly the /32");
  (match Flow_table.lookup table ~now ~in_port:1 frame with
  | Some e -> check_int "coarse survives strict delete" 50 e.priority
  | None -> Alcotest.fail "coarse rule lost");
  check_int "one entry left" 1 (Flow_table.size table)

(* --- Engine.every ~jitter root-RNG draw-order pin --- *)

let test_every_jitter_draw_order () =
  (* Pin the documented contract: a jittered recurrence draws exactly
     one Rng.int from the engine's root RNG per re-arm — once at
     creation and once after each firing — with the jitter bound in
     nanoseconds as the draw's bound. If this test breaks, seeded runs
     have changed behaviour: see the RNG-ownership note in engine.mli. *)
  let seed = 99 in
  let jitter = Time.us 100 in
  let engine = Jury_sim.Engine.create ~seed () in
  let fires = ref 0 in
  ignore
    (Jury_sim.Engine.every engine ~period:(Time.ms 10) ~jitter (fun () ->
         incr fires));
  Jury_sim.Engine.run engine ~until:(Time.ms 35);
  check_bool "recurrence fired" true (!fires >= 2);
  let mirror = Jury_sim.Rng.create seed in
  for _ = 0 to !fires do
    (* creation + one per firing *)
    ignore (Jury_sim.Rng.int mirror (Time.to_ns jitter))
  done;
  check_int "root RNG stream position is pinned"
    (Jury_sim.Rng.int mirror 1_000_000)
    (Jury_sim.Rng.int (Jury_sim.Engine.rng engine) 1_000_000)

let suite =
  [ Alcotest.test_case "pool: map_ordered keeps order" `Quick
      test_map_ordered_order;
    Alcotest.test_case "pool: degenerate cases" `Quick
      test_map_ordered_degenerate;
    Alcotest.test_case "pool: per-task exception capture" `Quick
      test_exception_capture;
    Alcotest.test_case "pool: map_ordered raises with indices" `Quick
      test_map_ordered_raises_with_indices;
    Alcotest.test_case "pool: persistent workers reused across sweeps" `Quick
      test_persistent_worker_reuse;
    Alcotest.test_case "pool: shutdown joins workers" `Quick test_shutdown;
    Alcotest.test_case "fig4a identical serial vs parallel" `Slow
      test_fig4a_serial_parallel_identical;
    Alcotest.test_case "run_matrix identical serial vs parallel" `Slow
      test_run_matrix_serial_parallel_identical;
    Alcotest.test_case "flow-table key classification agrees" `Quick
      test_key_classification_agrees;
    Alcotest.test_case "flow-table key equality agrees" `Quick
      test_key_equality_agrees;
    Alcotest.test_case "frame and match keys agree" `Quick
      test_frame_and_match_keys_agree;
    Alcotest.test_case "/32 vs coarser boundary semantics" `Quick
      test_boundary_lookup_and_strict_delete;
    Alcotest.test_case "every ~jitter root-RNG draw order" `Quick
      test_every_jitter_draw_order ]
