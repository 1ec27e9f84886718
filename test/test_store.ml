(* Tests for the distributed data store fabric. *)

open Jury_sim
module Fabric = Jury_store.Fabric
module Event = Jury_store.Event
module Names = Jury_store.Cache_names

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str_opt = Alcotest.(check (option string))

let mk ?(consistency = Fabric.Eventual) ?(nodes = 3) () =
  let engine = Engine.create () in
  (engine, Fabric.create engine ~consistency ~nodes ())

let write_ok fabric ~node ?taint ~cache op ~key ~value =
  match Fabric.write fabric ~node ?taint ~cache op ~key ~value with
  | Ok ev -> ev
  | Error e -> Alcotest.failf "write failed: %s" e

let test_local_write_read () =
  let _, f = mk () in
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"a" ~value:"1");
  check_str_opt "local read" (Some "1")
    (Fabric.read f ~node:0 ~cache:Names.hostdb ~key:"a");
  check_str_opt "peer not yet" None
    (Fabric.read f ~node:1 ~cache:Names.hostdb ~key:"a")

let test_eventual_replication () =
  let engine, f = mk () in
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"a" ~value:"1");
  Engine.run engine;
  check_str_opt "replicated to 1" (Some "1")
    (Fabric.read f ~node:1 ~cache:Names.hostdb ~key:"a");
  check_str_opt "replicated to 2" (Some "1")
    (Fabric.read f ~node:2 ~cache:Names.hostdb ~key:"a")

let test_strong_replication () =
  let engine, f = mk ~consistency:Fabric.Strong () in
  ignore (write_ok f ~node:1 ~cache:Names.flowsdb Event.Create ~key:"k" ~value:"v");
  Engine.run engine;
  check_str_opt "strong replicated" (Some "v")
    (Fabric.read f ~node:0 ~cache:Names.flowsdb ~key:"k");
  check_bool "strong sync cost positive" true
    Time.(Fabric.sync_cost f > Time.zero)

let test_update_delete () =
  let engine, f = mk () in
  ignore (write_ok f ~node:0 ~cache:Names.arpdb Event.Create ~key:"ip" ~value:"m1");
  ignore (write_ok f ~node:0 ~cache:Names.arpdb Event.Update ~key:"ip" ~value:"m2");
  Engine.run engine;
  check_str_opt "updated everywhere" (Some "m2")
    (Fabric.read f ~node:2 ~cache:Names.arpdb ~key:"ip");
  ignore (write_ok f ~node:0 ~cache:Names.arpdb Event.Delete ~key:"ip" ~value:"");
  Engine.run engine;
  check_str_opt "deleted everywhere" None
    (Fabric.read f ~node:2 ~cache:Names.arpdb ~key:"ip")

(* A read allocates only the [Some] it answers with, and [holds]
   compares a stored value in place, allocating nothing, with the
   answer [read] gives. *)
let test_read_allocation () =
  let _, f = mk () in
  ignore
    (write_ok f ~node:0 ~cache:Names.flowsdb Event.Create ~key:"k" ~value:"v");
  let words what budget call =
    call ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      call ()
    done;
    let words = (Gc.minor_words () -. before) /. 1000. in
    check_bool (Printf.sprintf "%s: %.2f words" what words) true
      (words <= budget)
  in
  let read cache key () =
    ignore (Sys.opaque_identity (Fabric.read f ~node:0 ~cache ~key))
  in
  words "a hit" 2. (read Names.flowsdb "k");
  words "a missing key" 0. (read Names.flowsdb "j");
  words "a cache never written" 0. (read Names.masterdb "k");
  let v = String.make 1 'v' in
  List.iter
    (fun (cache, key, answer) ->
      check_bool "holds is read = answer"
        (Fabric.read f ~node:0 ~cache ~key = answer)
        (Fabric.holds f ~node:0 ~cache ~key answer);
      words "holds" 0. (fun () ->
          ignore
            (Sys.opaque_identity (Fabric.holds f ~node:0 ~cache ~key answer))))
    [ (Names.flowsdb, "k", Some v);
      (Names.flowsdb, "k", Some "w");
      (Names.flowsdb, "k", None);
      (Names.flowsdb, "j", None);
      (Names.flowsdb, "j", Some v);
      (Names.masterdb, "k", None);
      (Names.masterdb, "k", Some v) ]

let test_entries_sorted () =
  let _, f = mk () in
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"b" ~value:"2");
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"a" ~value:"1");
  Alcotest.(check (list (pair string string)))
    "sorted" [ ("a", "1"); ("b", "2") ]
    (Fabric.entries f ~node:0 ~cache:Names.hostdb);
  check_int "count" 2 (Fabric.entry_count f ~node:0 ~cache:Names.hostdb)

let test_listeners () =
  let engine, f = mk () in
  let local_events = ref [] and remote_events = ref [] in
  Fabric.subscribe f ~node:1 (fun ~local ev ->
      if local then local_events := ev :: !local_events
      else remote_events := ev :: !remote_events);
  ignore (write_ok f ~node:1 ~cache:Names.hostdb Event.Create ~key:"x" ~value:"1");
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"y" ~value:"2");
  Engine.run engine;
  check_int "one local" 1 (List.length !local_events);
  check_int "one remote" 1 (List.length !remote_events);
  let remote = List.hd !remote_events in
  check_int "remote origin" 0 remote.Event.origin

let test_sequence_numbers () =
  let _, f = mk () in
  let e1 = write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"a" ~value:"" in
  let e2 = write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"b" ~value:"" in
  let e3 = write_ok f ~node:1 ~cache:Names.hostdb Event.Create ~key:"c" ~value:"" in
  check_bool "per-origin monotonic" true (e2.Event.seq > e1.Event.seq);
  check_int "fresh origin starts over" 1 e3.Event.seq

let test_taint_carried () =
  let engine, f = mk () in
  let seen = ref None in
  Fabric.subscribe f ~node:1 (fun ~local:_ ev ->
      seen := Option.map Jury_store.Taint.to_string ev.Event.taint);
  let taint = Jury_store.Taint.external_trigger ~primary:0 ~serial:7 in
  ignore
    (write_ok f ~node:0 ~taint ~cache:Names.flowsdb Event.Create ~key:"k"
       ~value:"v");
  Engine.run engine;
  check_str_opt "taint replicated" (Some "ext:0:7") !seen

let test_locking () =
  let _, f = mk () in
  Fabric.set_cache_locked f ~node:0 ~cache:Names.switchdb true;
  (match Fabric.write f ~node:0 ~cache:Names.switchdb Event.Create ~key:"s" ~value:"v" with
  | Error msg -> Alcotest.(check string) "lock error" "failed to obtain lock" msg
  | Ok _ -> Alcotest.fail "locked write should fail");
  (* Other caches and other nodes are unaffected. *)
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"h" ~value:"v");
  ignore (write_ok f ~node:1 ~cache:Names.switchdb Event.Create ~key:"s" ~value:"v");
  Fabric.set_cache_locked f ~node:0 ~cache:Names.switchdb false;
  ignore (write_ok f ~node:0 ~cache:Names.switchdb Event.Create ~key:"s2" ~value:"v")

let test_partition () =
  let engine, f = mk () in
  Fabric.set_partitioned f ~node:2 true;
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"a" ~value:"1");
  Engine.run engine;
  check_str_opt "node 1 got it" (Some "1")
    (Fabric.read f ~node:1 ~cache:Names.hostdb ~key:"a");
  check_str_opt "partitioned node 2 did not" None
    (Fabric.read f ~node:2 ~cache:Names.hostdb ~key:"a");
  (* Writes from a partitioned node stay local. *)
  ignore (write_ok f ~node:2 ~cache:Names.hostdb Event.Create ~key:"z" ~value:"9");
  Engine.run engine;
  check_str_opt "stays local" None
    (Fabric.read f ~node:0 ~cache:Names.hostdb ~key:"z")

let test_divergent_write () =
  let engine, f = mk () in
  ignore
    (Fabric.inject_divergent_write f ~node:1 ~cache:Names.flowsdb Event.Create
       ~key:"ghost" ~value:"rule");
  Engine.run engine;
  check_str_opt "present at faulty node" (Some "rule")
    (Fabric.read f ~node:1 ~cache:Names.flowsdb ~key:"ghost");
  check_str_opt "absent elsewhere" None
    (Fabric.read f ~node:0 ~cache:Names.flowsdb ~key:"ghost")

let test_accounting () =
  let engine, f = mk () in
  check_int "fresh fabric applied nothing" 0 (Fabric.events_applied f);
  ignore (write_ok f ~node:0 ~cache:Names.hostdb Event.Create ~key:"abc" ~value:"def");
  Engine.run engine;
  check_bool "bytes counted" true (Fabric.bytes_replicated f > 0);
  (* 1 local apply + 2 peer applies *)
  check_int "events applied" 3 (Fabric.events_applied f)

let test_cache_name_normalization () =
  let _, f = mk () in
  ignore
    (write_ok f ~node:0 ~cache:(Names.of_string "FlowsDB") Event.Create
       ~key:"k" ~value:"v");
  check_str_opt "normalized read" (Some "v")
    (Fabric.read f ~node:0 ~cache:Names.flowsdb ~key:"k");
  check_bool "known cache" true (Names.of_string "flowsdb" = Names.flowsdb);
  check_bool "unknown cache" false (List.mem (Names.of_string "NOPE") Names.all)

let test_fifo_per_channel () =
  (* Many rapid writes to one key from one origin must arrive in order
     at every peer (state sync rides TCP, §IV-C): the last write wins
     everywhere. *)
  let engine, f = mk () in
  for i = 1 to 50 do
    ignore
      (write_ok f ~node:0 ~cache:Names.arpdb Event.Update ~key:"k"
         ~value:(string_of_int i))
  done;
  Engine.run engine;
  check_str_opt "node1 sees last write" (Some "50")
    (Fabric.read f ~node:1 ~cache:Names.arpdb ~key:"k");
  check_str_opt "node2 sees last write" (Some "50")
    (Fabric.read f ~node:2 ~cache:Names.arpdb ~key:"k")

(* A cache name leaves the program only as its spelling: the wire size,
   the snapshot hash, the action fingerprint and the printed event of
   one event per cache, as computed when names were strings. A hash or
   compare over the constructor instead of its spelling moves these. *)
let test_cache_name_golden () =
  let op i = [| Event.Create; Event.Update; Event.Delete |].(i mod 3) in
  List.iteri
    (fun i (cache, size, digest, fingerprint, printed) ->
      let ev =
        { Event.cache; op = op i; key = Printf.sprintf "k%d" i;
          value = (if i mod 3 = 2 then "" else Printf.sprintf "v%d" i);
          origin = i; seq = 10 + i; taint = None }
      in
      let name = Names.to_string cache in
      check_int (name ^ " wire size") size (Event.wire_size ev);
      Alcotest.(check string) (name ^ " digest") digest
        (Format.asprintf "%a" Jury.Snapshot.pp
           (Jury.Snapshot.observe Jury.Snapshot.pristine ev));
      Alcotest.(check string) (name ^ " fingerprint") fingerprint
        (Jury_controller.Types.action_fingerprint
           (Jury_controller.Types.Cache_write
              { cache; op = ev.op; key = ev.key; value = ev.value }));
      Alcotest.(check string) (name ^ " pp") printed
        (Format.asprintf "%a" Event.pp ev))
    [ (Names.arpdb, 1159, "psi(n=1 2970374d)", "C|ARPDB|create|k0|v0",
       {|ARPDB[create k0="v0" origin=0 seq=10]|});
      (Names.hostdb, 1160, "psi(n=1 2f70e70d)", "C|HOSTDB|update|k1|v1",
       {|HOSTDB[update k1="v1" origin=1 seq=11]|});
      (Names.edgedb, 1158, "psi(n=1 1c1745a3)", "C|EDGEDB|delete|k2|",
       {|EDGEDB[delete k2="" origin=2 seq=12]|});
      (Names.linksdb, 1161, "psi(n=1 01bf39a6)", "C|LINKSDB|create|k3|v3",
       {|LINKSDB[create k3="v3" origin=3 seq=13]|});
      (Names.flowsdb, 1161, "psi(n=1 1b710413)", "C|FLOWSDB|update|k4|v4",
       {|FLOWSDB[update k4="v4" origin=4 seq=14]|});
      (Names.switchdb, 1160, "psi(n=1 3ff17d20)", "C|SWITCHDB|delete|k5|",
       {|SWITCHDB[delete k5="" origin=5 seq=15]|});
      (Names.masterdb, 1162, "psi(n=1 1f23e513)", "C|MASTERDB|create|k6|v6",
       {|MASTERDB[create k6="v6" origin=6 seq=16]|}) ]

(* Spellings drawn near the seven names: each name with random case
   flips, prefixes and suffixes of them, and free text over their
   letters. *)
let gen_spelling =
  let open QCheck.Gen in
  let flip s =
    map
      (fun flips ->
        String.mapi
          (fun i c -> if List.nth flips i then Char.lowercase_ascii c else c)
          s)
      (list_repeat (String.length s) bool)
  in
  let name = oneofl (List.map Names.to_string Names.all) in
  oneof
    [ name >>= flip;
      (name >>= fun s -> int_bound (String.length s) >|= String.sub s 0)
      >>= flip;
      map2 ( ^ ) (name >>= flip) (oneofl [ "X"; "s"; "_"; "DB" ]);
      string_size ~gen:(oneofl [ 'a'; 'D'; 'b'; 'B'; 'S'; 's'; 'w'; '_' ])
        (int_bound 8) ]

let prop_cache_names =
  QCheck.Test.make ~name:"cache names: one spelling each" ~count:1000
    (QCheck.make ~print:(fun s -> s) gen_spelling)
    (fun s ->
      let c = Names.of_string s in
      Names.of_string (Names.to_string c) = c
      && Names.of_string (String.lowercase_ascii s) = c
      && Names.of_string (String.uppercase_ascii s) = c
      && Names.to_string c = String.uppercase_ascii s
      &&
      match c with
      | Names.Other o ->
          (not (List.mem o (List.map Names.to_string Names.all)))
          && String.uppercase_ascii o = o
      | _ -> List.mem c Names.all)

let prop_eventual_convergence =
  QCheck.Test.make ~name:"eventual store converges" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30)
              (pair (int_bound 2) (pair small_printable_string small_printable_string)))
    (fun writes ->
      let engine, f = mk () in
      List.iter
        (fun (node, (key, value)) ->
          match
            Fabric.write f ~node ~cache:Names.hostdb Event.Update ~key:("k" ^ key)
              ~value
          with
          | Ok _ -> ()
          | Error _ -> ())
        writes;
      Engine.run engine;
      (* All nodes end with identical HOSTDB contents... up to
         last-writer ordering; with distinct keys per writer this is
         exact, so restrict the check to key sets. *)
      let keys n =
        List.map fst (Fabric.entries f ~node:n ~cache:Names.hostdb)
      in
      keys 0 = keys 1 && keys 1 = keys 2)

let suite =
  [ ("local write/read", `Quick, test_local_write_read);
    ("eventual replication", `Quick, test_eventual_replication);
    ("strong replication", `Quick, test_strong_replication);
    ("update and delete", `Quick, test_update_delete);
    ("entries sorted", `Quick, test_entries_sorted);
    ("read and holds allocation budget", `Quick, test_read_allocation);
    ("listeners", `Quick, test_listeners);
    ("sequence numbers", `Quick, test_sequence_numbers);
    ("taint carried", `Quick, test_taint_carried);
    ("cache locking", `Quick, test_locking);
    ("partition", `Quick, test_partition);
    ("divergent write", `Quick, test_divergent_write);
    ("byte accounting", `Quick, test_accounting);
    ("cache name normalization", `Quick, test_cache_name_normalization);
    ("cache name golden spellings", `Quick, test_cache_name_golden);
    QCheck_alcotest.to_alcotest prop_cache_names;
    ("fifo per channel", `Quick, test_fifo_per_channel);
    QCheck_alcotest.to_alcotest prop_eventual_convergence ]
