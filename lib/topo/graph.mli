(** Undirected multigraph of switches and their inter-switch links.

    Nodes are datapath ids; an edge records the port each endpoint uses,
    so routing can emit concrete output ports. Host attachment points
    live alongside the graph (a host hangs off a switch port but is not
    a graph node). *)

module Dpid = Jury_openflow.Of_types.Dpid

type endpoint = { dpid : Dpid.t; port : int }

type edge = { a : endpoint; b : endpoint }
(** Canonical orientation: [a.dpid <= b.dpid] (tie broken by port). *)

type t

val create : unit -> t
val add_switch : t -> Dpid.t -> unit

val add_link : t -> endpoint -> endpoint -> unit
(** Adds both switches if missing; idempotent per (endpoint, endpoint)
    pair. Self-loops are rejected. *)

val remove_link : t -> endpoint -> endpoint -> unit
val has_switch : t -> Dpid.t -> bool
val has_link : t -> endpoint -> endpoint -> bool
val switches : t -> Dpid.t list
val edges : t -> edge list

val neighbors : t -> Dpid.t -> (int * endpoint) list
(** [(local_port, remote_endpoint)] pairs for the given switch. *)

val switch_count : t -> int
val edge_count : t -> int
val copy : t -> t

(** {1 Routing}

    Every route comes from one breadth-first search. {!bfs_tree} runs
    it; the readers below answer from a tree, so a caller that keeps
    the tree of an unchanged graph answers repeated queries without
    searching again. A tree read never writes to the graph. *)

type tree
(** The BFS tree rooted at one switch: for every reachable switch, the
    parent it was reached from, the ports on both ends of that link
    and its hop distance from the root. *)

val bfs_tree : t -> Dpid.t -> tree
(** Neighbors are visited in {!neighbors} order, which fixes the
    parent chosen among equal-cost ones. *)

val path : t -> tree -> Dpid.t -> (Dpid.t * int * int) list option
(** [path t tree dst] is {!shortest_path} from the tree's root. *)

val first_hop : t -> tree -> Dpid.t -> int
(** [first_hop t tree dst] is the out port of the first hop of
    [path t tree dst] without building the path: [0] when [dst] is the
    tree's root, [-1] when {!path} is [None]. Allocates nothing. *)

val next_hops : t -> tree -> Dpid.t -> (int * Dpid.t) list
(** [next_hops t tree src] are the equal-cost first hops from [src]
    toward the tree's root: every (out_port, neighbor) whose hop
    distance to the root is exactly one less than [src]'s. Empty if
    [src] is unreachable or is the root. *)

val tree_ports : tree -> Dpid.t -> int list
(** Ports of one switch that lie on the tree, in no fixed order. A
    tree rooted at the same switch everywhere gives loop-free
    flooding. *)

val shortest_path : t -> Dpid.t -> Dpid.t -> (Dpid.t * int * int) list option
(** BFS hop-count path. Returns per-hop [(dpid, in_port, out_port)]
    triples: the packet enters switch [dpid] on [in_port] (0 for the
    first hop, meaning "from the host/ingress") and leaves on
    [out_port] (0 on the last hop, meaning "to the host"). [None] if
    disconnected, [Some []] never occurs; a path from a switch to
    itself is [Some [(s, 0, 0)]]. *)

val connected : t -> bool

val pp : Format.formatter -> t -> unit
