(** The distributed data store shared by a controller cluster.

    One [t] models the whole data-distribution platform (Hazelcast for
    ONOS, Infinispan for ODL): per-node cache views, write replication
    under an {!consistency} model, listener dispatch, inter-node byte
    accounting, and the fault hooks the paper's scenarios need (cache
    locking, node partition).

    Replication model:
    - [Eventual] (Hazelcast-like): a write applies locally immediately
      and is multicast to peers, each applying after an independent
      small delay. The writer does not wait — {!sync_cost} is ~0 — which
      is why clustering barely dents ONOS throughput (Fig. 4f).
    - [Strong] (Infinispan-like): the writer blocks for a coordination
      round that grows with cluster size; peers apply in the same
      round. {!sync_cost} is the per-write latency a controller's
      pipeline must absorb, which is what collapses ODL's clustered
      throughput (Fig. 4g). *)

type consistency = Eventual | Strong

type latency_profile = {
  local_apply : Jury_sim.Time.t;      (** local cache write cost *)
  replication_base : Jury_sim.Time.t; (** one-way peer delay, fixed part *)
  replication_jitter_us : float;      (** exponential jitter mean, µs *)
  strong_round_base : Jury_sim.Time.t;
  strong_round_per_node : Jury_sim.Time.t;
}

val default_eventual_profile : latency_profile
val default_strong_profile : latency_profile

type t

type listener = local:bool -> Event.t -> unit
(** [local = true] when the event originated at the subscribing node
    itself. *)

val create :
  Jury_sim.Engine.t -> consistency:consistency -> nodes:int ->
  ?standalone:bool -> ?profile:latency_profile -> unit -> t
(** [standalone] (default [false]) models instances with {e no}
    data-distribution platform at all (Ryu-style standalone
    controllers): writes apply locally and are never replicated to
    peers — each node's tables evolve independently. All other
    machinery (locking, listeners, partition flags, resync) still
    works per node. *)

val nodes : t -> int
val consistency : t -> consistency

val standalone : t -> bool
(** Whether this fabric was created with [~standalone:true] (writes
    never replicate). *)

val write :
  t -> node:int -> ?taint:Taint.t -> cache:Cache_names.t -> Event.op ->
  key:string -> value:string -> (Event.t, string) result
(** Issues a cache update from [node]. Applies locally (unless the
    cache is locked at that node — the ONOS database-locking fault),
    replicates to all non-partitioned peers, fires listeners. Returns
    the event as seen on the wire. *)

val read : t -> node:int -> cache:Cache_names.t -> key:string -> string option
(** Allocates only its answer's [Some]. *)

val holds :
  t -> node:int -> cache:Cache_names.t -> key:string -> string option -> bool
(** [holds t ~node ~cache ~key answer] is [read t ~node ~cache ~key =
    answer], compared in place: it allocates nothing. *)

val entries : t -> node:int -> cache:Cache_names.t -> (string * string) list
(** Sorted by key. *)

val entry_count : t -> node:int -> cache:Cache_names.t -> int

val subscribe : t -> node:int -> listener -> unit

val sync_cost : t -> Jury_sim.Time.t
(** Latency a writer's pipeline pays per write under the current
    consistency model and cluster size. *)

val strong_acquire : t -> Jury_sim.Time.t
(** For strongly-consistent fabrics: block on the cluster-wide
    coordination channel and hold it for one round; returns the total
    stall (queueing + round) the writer pays. Writes from every node
    serialise through this channel — the reason clustering collapses
    ODL's throughput (Fig. 4g). *)

(** {1 Fault hooks} *)

val set_cache_locked : t -> node:int -> cache:Cache_names.t -> bool -> unit
(** While locked, {!write} at that node fails with
    ["failed to obtain lock"]. *)

val set_partitioned : t -> node:int -> bool -> unit
(** A partitioned node neither receives nor emits replication. *)

val is_partitioned : t -> node:int -> bool

val resync : t -> from:int -> node:int -> unit
(** State transfer for a rejoining node: [node]'s cache tables are
    silently replaced with a deep copy of [from]'s — no events, no
    listener dispatch, no sequence bumps — so divergence accumulated
    while crashed or partitioned vanishes without traffic the validator
    would have to account for. Raises [Invalid_argument] when
    [from = node]. *)

val inject_divergent_write :
  t -> node:int -> cache:Cache_names.t -> Event.op -> key:string ->
  value:string -> Event.t
(** Applies a write at [node] only, {e without} replication — simulates
    a faulty replica whose state silently diverges. Listeners at [node]
    still fire (the node believes the write is normal). *)

(** {1 Accounting} *)

val bytes_replicated : t -> int
(** Cumulative inter-node replication bytes. *)

val events_applied : t -> int
(** Cumulative cache events applied, local and replicated. *)

val cache_words : t -> int
(** Heap words reachable from every node's caches together (a string
    two replicas share counts once), and from nothing else: the
    listeners are closures whose walk reaches the whole heap. *)
