(* Tests for the topology graph, builders and routing. *)

module Graph = Jury_topo.Graph
module Builder = Jury_topo.Builder
module Dpid = Jury_openflow.Of_types.Dpid

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let d = Dpid.of_int
let ep dpid port = { Graph.dpid = d dpid; port }

let test_add_remove () =
  let g = Graph.create () in
  Graph.add_link g (ep 1 1) (ep 2 1);
  check_int "switches" 2 (Graph.switch_count g);
  check_int "edges" 1 (Graph.edge_count g);
  check_bool "has link" true (Graph.has_link g (ep 1 1) (ep 2 1));
  check_bool "symmetric" true (Graph.has_link g (ep 2 1) (ep 1 1));
  (* idempotent *)
  Graph.add_link g (ep 1 1) (ep 2 1);
  check_int "still one edge" 1 (Graph.edge_count g);
  Graph.remove_link g (ep 1 1) (ep 2 1);
  check_int "removed" 0 (Graph.edge_count g);
  check_int "switches stay" 2 (Graph.switch_count g)

let test_self_loop_rejected () =
  let g = Graph.create () in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_link: self-loop")
    (fun () -> Graph.add_link g (ep 1 1) (ep 1 2))

let test_multilink () =
  let g = Graph.create () in
  Graph.add_link g (ep 1 1) (ep 2 1);
  Graph.add_link g (ep 1 2) (ep 2 2);
  check_int "parallel links" 2 (Graph.edge_count g);
  check_int "neighbors listed" 2 (List.length (Graph.neighbors g (d 1)))

let test_shortest_path_linear () =
  let plan = Builder.linear ~switches:5 ~hosts_per_switch:1 in
  match Graph.shortest_path plan.Builder.graph (d 1) (d 5) with
  | None -> Alcotest.fail "disconnected"
  | Some hops ->
      check_int "hop count" 5 (List.length hops);
      let dpids = List.map (fun (dp, _, _) -> dp) hops in
      check_bool "starts at src" true (Dpid.equal (List.hd dpids) (d 1));
      check_bool "ends at dst" true
        (Dpid.equal (List.nth dpids 4) (d 5));
      (* port continuity: out port of hop i connects to in port of i+1 *)
      let rec continuity = function
        | (d1, _, out1) :: ((d2, in2, _) :: _ as rest) ->
            check_bool "ports wired" true
              (Graph.has_link plan.Builder.graph
                 { Graph.dpid = d1; port = out1 }
                 { Graph.dpid = d2; port = in2 });
            continuity rest
        | _ -> ()
      in
      continuity hops

let test_shortest_path_same_switch () =
  let plan = Builder.linear ~switches:3 ~hosts_per_switch:1 in
  match Graph.shortest_path plan.Builder.graph (d 2) (d 2) with
  | Some [ (dp, 0, 0) ] -> check_bool "self" true (Dpid.equal dp (d 2))
  | _ -> Alcotest.fail "expected singleton path"

let test_shortest_path_disconnected () =
  let g = Graph.create () in
  Graph.add_switch g (d 1);
  Graph.add_switch g (d 2);
  check_bool "no path" true (Graph.shortest_path g (d 1) (d 2) = None);
  check_bool "not connected" false (Graph.connected g)

let test_path_shrinks_after_shortcut () =
  let plan = Builder.linear ~switches:6 ~hosts_per_switch:1 in
  let g = plan.Builder.graph in
  let before =
    match Graph.shortest_path g (d 1) (d 6) with
    | Some hops -> List.length hops
    | None -> -1
  in
  Graph.add_link g (ep 1 90) (ep 6 90);
  let after =
    match Graph.shortest_path g (d 1) (d 6) with
    | Some hops -> List.length hops
    | None -> -1
  in
  check_int "before" 6 before;
  check_int "after shortcut" 2 after

let test_spanning_tree () =
  let plan = Builder.three_tier ~hosts_per_edge:1 in
  let g = plan.Builder.graph in
  check_bool "three-tier has cycles" true
    (Graph.edge_count g >= Graph.switch_count g);
  let tree = Graph.bfs_tree g (d 100) in
  let tree_edge_count =
    List.fold_left
      (fun acc dpid -> acc + List.length (Graph.tree_ports tree dpid))
      0 (Graph.switches g)
    / 2
  in
  check_int "tree edges = nodes - 1" (Graph.switch_count g - 1) tree_edge_count

let test_builder_linear () =
  let plan = Builder.linear ~switches:24 ~hosts_per_switch:1 in
  check_int "switches" 24 (Graph.switch_count plan.Builder.graph);
  check_int "links" 23 (Graph.edge_count plan.Builder.graph);
  check_int "hosts" 24 (Builder.host_count plan);
  check_bool "connected" true (Graph.connected plan.Builder.graph)

let test_builder_star () =
  let plan = Builder.star ~leaves:5 ~hosts_per_leaf:2 in
  check_int "switches" 6 (Graph.switch_count plan.Builder.graph);
  check_int "links" 5 (Graph.edge_count plan.Builder.graph);
  check_int "hosts" 10 (Builder.host_count plan)

let test_builder_ring () =
  let plan = Builder.ring ~switches:5 ~hosts_per_switch:1 in
  check_int "links = switches" 5 (Graph.edge_count plan.Builder.graph);
  check_bool "connected" true (Graph.connected plan.Builder.graph)

let test_builder_three_tier () =
  let plan = Builder.three_tier ~hosts_per_edge:2 in
  check_int "switches 8+4+2" 14 (Graph.switch_count plan.Builder.graph);
  check_int "hosts" 16 (Builder.host_count plan);
  check_bool "connected" true (Graph.connected plan.Builder.graph);
  (* each edge switch dual-homed: 2 uplinks; each aggregate reaches both cores *)
  let edge_uplinks = Graph.neighbors plan.Builder.graph (d 100) in
  check_int "edge dual-homed" 2 (List.length edge_uplinks)

let test_builder_fat_tree () =
  let plan = Builder.fat_tree ~k:4 in
  (* k=4: 4 core + 4 pods x (2 agg + 2 edge) = 20 switches, 16 hosts *)
  check_int "switches" 20 (Graph.switch_count plan.Builder.graph);
  check_int "hosts" 16 (Builder.host_count plan);
  check_bool "connected" true (Graph.connected plan.Builder.graph)

let test_host_slots () =
  let plan = Builder.linear ~switches:3 ~hosts_per_switch:2 in
  let slot = Builder.find_host_slot plan 3 in
  check_bool "host 3 on switch 2" true (Dpid.equal slot.Builder.dpid (d 2));
  Alcotest.check_raises "unknown host" Not_found (fun () ->
      ignore (Builder.find_host_slot plan 99))

let test_next_hop_choices () =
  let next_hop_choices g src dst = Graph.next_hops g (Graph.bfs_tree g dst) src in
  let plan = Builder.linear ~switches:5 ~hosts_per_switch:1 in
  (match next_hop_choices plan.Builder.graph (d 1) (d 5) with
  | [ (_, next) ] -> check_bool "single choice on a line" true (Dpid.equal next (d 2))
  | l -> Alcotest.failf "expected one choice, got %d" (List.length l));
  check_int "no choice to self" 0
    (List.length (next_hop_choices plan.Builder.graph (d 3) (d 3)));
  (* three-tier: an edge switch reaches a far edge through either of its
     two aggregates. *)
  let tt = Builder.three_tier ~hosts_per_edge:1 in
  let choices = next_hop_choices tt.Builder.graph (d 100) (d 104) in
  check_bool "multipath in three-tier" true (List.length choices >= 2)

(* The per-query searches the shared BFS tree replaced: a fresh
   parent-table BFS per path, a fresh distance-table BFS per next-hop
   query. Kept as the reference the tree readers must reproduce. *)
let reference_parents g src =
  let parents = Hashtbl.create 64 and visited = Hashtbl.create 64 in
  Hashtbl.add visited src ();
  let q = Queue.create () in
  Queue.push src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (local_port, (remote : Graph.endpoint)) ->
        if not (Hashtbl.mem visited remote.dpid) then begin
          Hashtbl.add visited remote.dpid ();
          Hashtbl.add parents remote.dpid (u, local_port, remote.port);
          Queue.push remote.dpid q
        end)
      (Graph.neighbors g u)
  done;
  (parents, visited)

let reference_path g src dst =
  if not (Graph.has_switch g src && Graph.has_switch g dst) then None
  else if Dpid.equal src dst then Some [ (src, 0, 0) ]
  else
    let parents, visited = reference_parents g src in
    if not (Hashtbl.mem visited dst) then None
    else
      let rec walk dpid out acc =
        match Hashtbl.find_opt parents dpid with
        | None -> (dpid, 0, out) :: acc
        | Some (parent, parent_out, our_in) ->
            walk parent parent_out ((dpid, our_in, out) :: acc)
      in
      Some (walk dst 0 [])

let reference_next_hops g src dst =
  let dist = Hashtbl.create 64 in
  Hashtbl.add dist dst 0;
  let q = Queue.create () in
  Queue.push dst q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (_, (remote : Graph.endpoint)) ->
        if not (Hashtbl.mem dist remote.dpid) then begin
          Hashtbl.add dist remote.dpid (Hashtbl.find dist u + 1);
          Queue.push remote.dpid q
        end)
      (Graph.neighbors g u)
  done;
  match Hashtbl.find_opt dist src with
  | Some dsrc when not (Dpid.equal src dst) ->
      List.filter_map
        (fun (port, (remote : Graph.endpoint)) ->
          if Hashtbl.find_opt dist remote.dpid = Some (dsrc - 1) then
            Some (port, remote.dpid)
          else None)
        (Graph.neighbors g src)
  | _ -> []

let test_tree_readers_match_reference () =
  List.iter
    (fun (plan : Builder.plan) ->
      let g = plan.Builder.graph in
      (* One link down, so some pairs take a detour and the tree is not
         the builder's. *)
      let e = List.hd (Graph.edges g) in
      Graph.remove_link g e.a e.b;
      let switches = Graph.switches g in
      List.iter
        (fun root ->
          (* One tree per root answers every query against it. *)
          let tree = Graph.bfs_tree g root in
          let parents, _ = reference_parents g root in
          List.iter
            (fun other ->
              check_bool "path" true
                (Graph.path g tree other = reference_path g root other);
              check_bool "shortest_path" true
                (Graph.shortest_path g root other = reference_path g root other);
              check_bool "next hops" true
                (Graph.next_hops g tree other
                = reference_next_hops g other root);
              let tree_ports =
                Hashtbl.fold
                  (fun child (parent, parent_out, child_in) acc ->
                    (if Dpid.equal child other then [ child_in ] else [])
                    @ (if Dpid.equal parent other then [ parent_out ] else [])
                    @ acc)
                  parents []
              in
              Alcotest.(check (list int))
                "tree ports"
                (List.sort_uniq compare tree_ports)
                (List.sort compare (Graph.tree_ports tree other)))
            switches)
        switches)
    [ Builder.linear ~switches:5 ~hosts_per_switch:1;
      Builder.three_tier ~hosts_per_edge:1;
      Builder.fat_tree ~k:4 ]

module Weighted = Jury_topo.Weighted

let test_weighted_uniform_matches_bfs () =
  let plan = Builder.linear ~switches:6 ~hosts_per_switch:1 in
  match Weighted.shortest_path plan.Builder.graph Weighted.uniform (d 1) (d 6) with
  | Some (hops, total) ->
      check_int "same hop count as BFS" 6 (List.length hops);
      check_bool "total = hops - 1" true (abs_float (total -. 5.) < 1e-9)
  | None -> Alcotest.fail "connected"

let test_weighted_avoids_heavy_link () =
  (* A ring lets Dijkstra route the long way around when the short side
     is expensive. *)
  let plan = Builder.ring ~switches:4 ~hosts_per_switch:1 in
  let g = plan.Builder.graph in
  (* Make every link that touches switch 2 very heavy. *)
  let heavy =
    Graph.edges g
    |> List.filter_map (fun (e : Graph.edge) ->
           if Dpid.equal e.Graph.a.Graph.dpid (d 2)
              || Dpid.equal e.Graph.b.Graph.dpid (d 2)
           then Some (e.Graph.a, e.Graph.b, 100.)
           else None)
  in
  let w = Weighted.of_assignments heavy in
  match Weighted.shortest_path g w (d 1) (d 3) with
  | Some (hops, total) ->
      let via = List.map (fun (dp, _, _) -> dp) hops in
      check_bool "avoids switch 2" false (List.mem (d 2) via);
      check_bool "cheap total" true (total < 10.)
  | None -> Alcotest.fail "connected"

let test_weighted_path_weight () =
  let plan = Builder.linear ~switches:3 ~hosts_per_switch:1 in
  let g = plan.Builder.graph in
  match Weighted.shortest_path g Weighted.uniform (d 1) (d 3) with
  | Some (hops, total) ->
      check_bool "path_weight agrees" true
        (abs_float (Weighted.path_weight g Weighted.uniform hops -. total)
        < 1e-9)
  | None -> Alcotest.fail "connected"

let test_weighted_rejects_bad_weight () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Weighted.of_assignments: weight <= 0") (fun () ->
      ignore (Weighted.of_assignments [ (ep 1 1, ep 2 1, 0.) ]))

let prop_linear_paths =
  QCheck.Test.make ~name:"linear path length = |a-b|+1" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 1 20))
    (fun (a, b) ->
      let plan = Builder.linear ~switches:20 ~hosts_per_switch:1 in
      match Graph.shortest_path plan.Builder.graph (d a) (d b) with
      | Some hops -> List.length hops = abs (a - b) + 1
      | None -> false)

let suite =
  [ ("add/remove links", `Quick, test_add_remove);
    ("self-loop rejected", `Quick, test_self_loop_rejected);
    ("parallel links", `Quick, test_multilink);
    ("shortest path linear", `Quick, test_shortest_path_linear);
    ("shortest path to self", `Quick, test_shortest_path_same_switch);
    ("shortest path disconnected", `Quick, test_shortest_path_disconnected);
    ("path uses shortcut", `Quick, test_path_shrinks_after_shortcut);
    ("spanning tree", `Quick, test_spanning_tree);
    ("builder linear", `Quick, test_builder_linear);
    ("builder star", `Quick, test_builder_star);
    ("builder ring", `Quick, test_builder_ring);
    ("builder three-tier", `Quick, test_builder_three_tier);
    ("builder fat-tree", `Quick, test_builder_fat_tree);
    ("host slots", `Quick, test_host_slots);
    ("next hop choices", `Quick, test_next_hop_choices);
    ("tree readers = per-query BFS", `Quick, test_tree_readers_match_reference);
    ("weighted uniform = bfs", `Quick, test_weighted_uniform_matches_bfs);
    ("weighted avoids heavy link", `Quick, test_weighted_avoids_heavy_link);
    ("weighted path weight", `Quick, test_weighted_path_weight);
    ("weighted rejects bad weight", `Quick, test_weighted_rejects_bad_weight);
    QCheck_alcotest.to_alcotest prop_linear_paths ]
