(** Canned topologies.

    Each builder returns the switch graph plus the host attachment plan
    (which switch port each host occupies), leaving instantiation of
    simulated switches/hosts to [jury_net]. Ports are allocated
    deterministically: host-facing ports first (1..h), then inter-switch
    ports. *)

module Dpid = Jury_openflow.Of_types.Dpid

type host_slot = { host_index : int; dpid : Dpid.t; port : int }

type plan = {
  graph : Graph.t;
  hosts : host_slot list;
  name : string;
}

val linear : switches:int -> hosts_per_switch:int -> plan
(** The paper's Mininet workload topology: [switches] in a chain, each
    with [hosts_per_switch] hosts (the paper uses 24 switches x 1
    host). *)

val single : hosts:int -> plan
(** One switch, [hosts] hosts. *)

val star : leaves:int -> hosts_per_leaf:int -> plan
(** One core switch with [leaves] edge switches. *)

val ring : switches:int -> hosts_per_switch:int -> plan

val three_tier : hosts_per_edge:int -> plan
(** The paper's physical testbed shape: 8 edge, 4 aggregate and 2 core
    switches, edge switches dual-homed to two aggregates,
    aggregates dual-homed to both cores. Hosts hang off edge switches. *)

val fat_tree : k:int -> plan
(** Standard k-ary fat-tree (k even): (k/2)^2 core, k pods of k/2 agg +
    k/2 edge switches, one host per edge port. *)

val host_count : plan -> int
val find_host_slot : plan -> int -> host_slot
(** Raises [Not_found] for an unknown host index. *)
