module Dpid = Jury_openflow.Of_types.Dpid

type host_slot = { host_index : int; dpid : Dpid.t; port : int }
type plan = { graph : Graph.t; hosts : host_slot list; name : string }

(* Per-switch next-free-port allocator. *)
module Ports = struct
  type t = (Dpid.t, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let next (t : t) dpid =
    match Hashtbl.find_opt t dpid with
    | Some r ->
        incr r;
        !r
    | None ->
        Hashtbl.add t dpid (ref 1);
        1
end

let attach_hosts graph ports dpids ~hosts_per =
  let idx = ref 0 in
  List.concat_map
    (fun dpid ->
      Graph.add_switch graph dpid;
      List.init hosts_per (fun _ ->
          let slot =
            { host_index = !idx; dpid; port = Ports.next ports dpid }
          in
          incr idx;
          slot))
    dpids

let link graph ports d1 d2 =
  let p1 = Ports.next ports d1 and p2 = Ports.next ports d2 in
  Graph.add_link graph { dpid = d1; port = p1 } { dpid = d2; port = p2 }

let linear ~switches ~hosts_per_switch =
  if switches <= 0 then invalid_arg "Builder.linear: need >= 1 switch";
  let graph = Graph.create () in
  let ports = Ports.create () in
  let dpids = List.init switches (fun i -> Dpid.of_int (i + 1)) in
  let hosts = attach_hosts graph ports dpids ~hosts_per:hosts_per_switch in
  let rec chain = function
    | a :: (b :: _ as rest) ->
        link graph ports a b;
        chain rest
    | [ _ ] | [] -> ()
  in
  chain dpids;
  { graph; hosts; name = Printf.sprintf "linear-%d" switches }

let single ~hosts =
  let plan = linear ~switches:1 ~hosts_per_switch:hosts in
  { plan with name = "single" }

let star ~leaves ~hosts_per_leaf =
  if leaves <= 0 then invalid_arg "Builder.star: need >= 1 leaf";
  let graph = Graph.create () in
  let ports = Ports.create () in
  let core = Dpid.of_int 1 in
  Graph.add_switch graph core;
  let leaf_dpids = List.init leaves (fun i -> Dpid.of_int (i + 2)) in
  let hosts = attach_hosts graph ports leaf_dpids ~hosts_per:hosts_per_leaf in
  List.iter (fun leaf -> link graph ports core leaf) leaf_dpids;
  { graph; hosts; name = Printf.sprintf "star-%d" leaves }

let ring ~switches ~hosts_per_switch =
  if switches < 3 then invalid_arg "Builder.ring: need >= 3 switches";
  let plan = linear ~switches ~hosts_per_switch in
  let ports = Ports.create () in
  (* Re-derive port allocation is unsafe; instead use high port numbers
     for the closing link. *)
  ignore ports;
  let first = Dpid.of_int 1 and last = Dpid.of_int switches in
  Graph.add_link plan.graph
    { dpid = first; port = 100 }
    { dpid = last; port = 100 };
  { plan with name = Printf.sprintf "ring-%d" switches }

(* The testbed's tier sizes: edge, aggregate and core switches. *)
let edge = 8
let aggregate = 4
let core = 2

let three_tier ~hosts_per_edge =
  let graph = Graph.create () in
  let ports = Ports.create () in
  let edge_dpids = List.init edge (fun i -> Dpid.of_int (100 + i)) in
  let agg_dpids = List.init aggregate (fun i -> Dpid.of_int (200 + i)) in
  let core_dpids = List.init core (fun i -> Dpid.of_int (300 + i)) in
  List.iter (Graph.add_switch graph) (agg_dpids @ core_dpids);
  let hosts = attach_hosts graph ports edge_dpids ~hosts_per:hosts_per_edge in
  let agg_arr = Array.of_list agg_dpids in
  List.iteri
    (fun i e ->
      (* Dual-home each edge switch to two aggregates. *)
      let a1 = agg_arr.(i mod aggregate) in
      let a2 = agg_arr.((i + 1) mod aggregate) in
      link graph ports e a1;
      if not (Dpid.equal a1 a2) then link graph ports e a2)
    edge_dpids;
  List.iter
    (fun a -> List.iter (fun c -> link graph ports a c) core_dpids)
    agg_dpids;
  { graph; hosts; name = Printf.sprintf "three-tier-%d/%d/%d" edge aggregate core }

let fat_tree ~k =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Builder.fat_tree: k must be even";
  let graph = Graph.create () in
  let ports = Ports.create () in
  let half = k / 2 in
  let core_dpids =
    List.init (half * half) (fun i -> Dpid.of_int (10_000 + i))
  in
  List.iter (Graph.add_switch graph) core_dpids;
  let hosts = ref [] in
  let host_idx = ref 0 in
  let core_arr = Array.of_list core_dpids in
  for pod = 0 to k - 1 do
    let agg = List.init half (fun i -> Dpid.of_int (1_000 + (pod * 100) + i)) in
    let edg = List.init half (fun i -> Dpid.of_int (2_000 + (pod * 100) + i)) in
    List.iter (Graph.add_switch graph) (agg @ edg);
    (* Hosts on edge switches. *)
    List.iter
      (fun e ->
        for _ = 1 to half do
          hosts :=
            { host_index = !host_idx; dpid = e; port = Ports.next ports e }
            :: !hosts;
          incr host_idx
        done)
      edg;
    (* Edge <-> agg full mesh within pod. *)
    List.iter (fun e -> List.iter (fun a -> link graph ports e a) agg) edg;
    (* Agg <-> core. *)
    List.iteri
      (fun ai a ->
        for ci = 0 to half - 1 do
          link graph ports a core_arr.((ai * half) + ci)
        done)
      agg
  done;
  { graph; hosts = List.rev !hosts; name = Printf.sprintf "fat-tree-%d" k }

let host_count plan = List.length plan.hosts

let find_host_slot plan i =
  match List.find_opt (fun h -> h.host_index = i) plan.hosts with
  | Some h -> h
  | None -> raise Not_found
