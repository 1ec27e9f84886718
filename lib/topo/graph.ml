module Dpid = Jury_openflow.Of_types.Dpid

type endpoint = { dpid : Dpid.t; port : int }
type edge = { a : endpoint; b : endpoint }

module DpidMap = Map.Make (Dpid)

type t = {
  mutable adj : (int * endpoint) list DpidMap.t;
      (* switch -> (local port, remote endpoint) *)
}

let create () = { adj = DpidMap.empty }

let add_switch t dpid =
  if not (DpidMap.mem dpid t.adj) then t.adj <- DpidMap.add dpid [] t.adj

let has_switch t dpid = DpidMap.mem dpid t.adj

let neighbors t dpid =
  match DpidMap.find_opt dpid t.adj with Some l -> l | None -> []

let has_link t e1 e2 =
  List.exists
    (fun (p, remote) -> p = e1.port && remote = e2)
    (neighbors t e1.dpid)

let add_link t e1 e2 =
  if Dpid.equal e1.dpid e2.dpid then invalid_arg "Graph.add_link: self-loop";
  add_switch t e1.dpid;
  add_switch t e2.dpid;
  if not (has_link t e1 e2) then begin
    t.adj <-
      DpidMap.update e1.dpid
        (fun l -> Some ((e1.port, e2) :: Option.value l ~default:[]))
        t.adj;
    t.adj <-
      DpidMap.update e2.dpid
        (fun l -> Some ((e2.port, e1) :: Option.value l ~default:[]))
        t.adj
  end

let remove_link t e1 e2 =
  let prune dpid port remote =
    t.adj <-
      DpidMap.update dpid
        (Option.map
           (List.filter (fun (p, r) -> not (p = port && r = remote))))
        t.adj
  in
  prune e1.dpid e1.port e2;
  prune e2.dpid e2.port e1

let switches t = DpidMap.fold (fun k _ acc -> k :: acc) t.adj [] |> List.rev

let canonical e1 e2 =
  let c = Dpid.compare e1.dpid e2.dpid in
  if c < 0 || (c = 0 && e1.port <= e2.port) then { a = e1; b = e2 }
  else { a = e2; b = e1 }

let edges t =
  DpidMap.fold
    (fun dpid links acc ->
      List.fold_left
        (fun acc (port, remote) ->
          let e = canonical { dpid; port } remote in
          if e.a.dpid = dpid && e.a.port = port then e :: acc else acc)
        acc links)
    t.adj []

let switch_count t = DpidMap.cardinal t.adj
let edge_count t = List.length (edges t)
let copy t = { adj = t.adj }

(* How BFS reached a switch: from [parent], leaving it on [parent_port]
   and entering on [in_port], [depth] hops from the root. *)
type hop = { parent : Dpid.t; parent_port : int; in_port : int; depth : int }
type tree = { root : Dpid.t; hops : hop DpidMap.t }

let bfs_tree t root =
  let hops = ref DpidMap.empty in
  let q = Queue.create () in
  Queue.push (root, 0) q;
  while not (Queue.is_empty q) do
    let u, du = Queue.pop q in
    List.iter
      (fun (local_port, remote) ->
        if
          not (Dpid.equal remote.dpid root || DpidMap.mem remote.dpid !hops)
        then begin
          hops :=
            DpidMap.add remote.dpid
              { parent = u;
                parent_port = local_port;
                in_port = remote.port;
                depth = du + 1 }
              !hops;
          Queue.push (remote.dpid, du + 1) q
        end)
      (neighbors t u)
  done;
  { root; hops = !hops }

let depth tree dpid =
  if Dpid.equal dpid tree.root then Some 0
  else Option.map (fun h -> h.depth) (DpidMap.find_opt dpid tree.hops)

let path t tree dst =
  let src = tree.root in
  if not (has_switch t src && has_switch t dst) then None
  else if Dpid.equal src dst then Some [ (src, 0, 0) ]
  else if not (DpidMap.mem dst tree.hops) then None
  else begin
    (* Walk back from dst: each hop enters on its [in_port] and leaves
       on the next hop's [parent_port]; the last hop leaves on 0. *)
    let rec walk dpid out acc =
      match DpidMap.find_opt dpid tree.hops with
      | None -> (dpid, 0, out) :: acc (* reached src *)
      | Some h -> walk h.parent h.parent_port ((dpid, h.in_port, out) :: acc)
    in
    Some (walk dst 0 [])
  end

(* Allocation-free: [DpidMap.find] raises where [find_opt] would box
   its answer. *)
let rec first_hop_port tree h =
  if Dpid.equal h.parent tree.root then h.parent_port
  else first_hop_port tree (DpidMap.find h.parent tree.hops)

let first_hop t tree dst =
  let src = tree.root in
  if not (has_switch t src && has_switch t dst) then -1
  else if Dpid.equal src dst then 0
  else
    match DpidMap.find dst tree.hops with
    | h -> first_hop_port tree h
    | exception Not_found -> -1

let next_hops t tree src =
  match depth tree src with
  | None | Some 0 -> []
  | Some dsrc ->
      List.filter_map
        (fun (port, remote) ->
          match depth tree remote.dpid with
          | Some d when d = dsrc - 1 -> Some (port, remote.dpid)
          | _ -> None)
        (neighbors t src)

let tree_ports tree dpid =
  let own =
    match DpidMap.find_opt dpid tree.hops with
    | Some h -> [ h.in_port ]
    | None -> []
  in
  DpidMap.fold
    (fun _ h acc ->
      if Dpid.equal h.parent dpid && not (List.mem h.parent_port acc) then
        h.parent_port :: acc
      else acc)
    tree.hops own

let shortest_path t src dst = path t (bfs_tree t src) dst

let connected t =
  match switches t with
  | [] -> true
  | s :: _ -> DpidMap.cardinal (bfs_tree t s).hops + 1 = switch_count t

let pp fmt t =
  Format.fprintf fmt "graph(%d switches, %d links)@." (switch_count t)
    (edge_count t);
  List.iter
    (fun e ->
      Format.fprintf fmt "  %a:%d <-> %a:%d@." Dpid.pp e.a.dpid e.a.port
        Dpid.pp e.b.dpid e.b.port)
    (edges t)
