open Jury_sim

type consistency = Eventual | Strong

type latency_profile = {
  local_apply : Time.t;
  replication_base : Time.t;
  replication_jitter_us : float;
  strong_round_base : Time.t;
  strong_round_per_node : Time.t;
}

let default_eventual_profile =
  { local_apply = Time.us 20;
    replication_base = Time.us 300;
    replication_jitter_us = 150.;
    strong_round_base = Time.zero;
    strong_round_per_node = Time.zero }

let default_strong_profile =
  { local_apply = Time.us 50;
    replication_base = Time.us 400;
    replication_jitter_us = 200.;
    strong_round_base = Time.ms 1;
    strong_round_per_node = Time.of_float_us 350. }

type node_state = {
  caches : (Cache_names.t, (string, string) Hashtbl.t) Hashtbl.t;
  mutable listeners : (local:bool -> Event.t -> unit) list;
  locked : (Cache_names.t, unit) Hashtbl.t;
  mutable partitioned : bool;
  footprint : Footprint.t;
      (* this node's store and controller: a delivery to it mutates its
         replica tables and runs its listeners (controller cache
         manager, validator relay) *)
}

type t = {
  engine : Engine.t;
  consistency : consistency;
  standalone : bool;
  profile : latency_profile;
  node_states : node_state array;
  seqs : int array;
  rng : Rng.t;
  channel_clear : Time.t array array;
      (* per (origin, peer) channel: earliest next delivery — state
         synchronisation rides TCP, so per-channel order is preserved *)
  mutable strong_channel_clear : Time.t;
      (* strongly-consistent writes serialise through one cluster-wide
         coordination round (Infinispan transactions): this is when the
         channel next frees up *)
  mutable bytes_replicated : int;
  mutable events_applied : int;
}

type listener = local:bool -> Event.t -> unit

let create engine ~consistency ~nodes ?(standalone = false) ?profile () =
  if nodes <= 0 then invalid_arg "Fabric.create: need >= 1 node";
  let profile =
    match profile with
    | Some p -> p
    | None -> (
        match consistency with
        | Eventual -> default_eventual_profile
        | Strong -> default_strong_profile)
  in
  { engine;
    consistency;
    standalone;
    profile;
    node_states =
      Array.init nodes (fun i ->
          { caches = Hashtbl.create 8;
            listeners = [];
            locked = Hashtbl.create 4;
            partitioned = false;
            footprint =
              Footprint.two (Footprint.store i) (Footprint.controller i) });
    seqs = Array.make nodes 0;
    rng = Rng.split (Engine.rng engine);
    channel_clear = Array.make_matrix nodes nodes Time.zero;
    strong_channel_clear = Time.zero;
    bytes_replicated = 0;
    events_applied = 0 }

let nodes t = Array.length t.node_states
let consistency t = t.consistency
let standalone t = t.standalone

let check_node t node =
  if node < 0 || node >= nodes t then invalid_arg "Fabric: bad node id"

let cache_table st name =
  match Hashtbl.find_opt st.caches name with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 32 in
      Hashtbl.add st.caches name tbl;
      tbl

let trace_apply t node (ev : Event.t) ~local =
  match ev.taint with
  | None -> ()
  | Some taint ->
      let tr = Engine.trace t.engine in
      if Jury_obs.Trace.enabled tr then
        Jury_obs.Trace.point tr ~t_ns:(Engine.now_ns t.engine)
          ~taint:(Taint.to_string taint)
          ~phase:Jury_obs.Trace.Cache_write ~node
          [ ("cache", Cache_names.to_string ev.cache);
            ("op", Event.op_to_string ev.op);
            ("key", ev.key);
            ("origin", string_of_int ev.origin);
            ("apply", if local then "local" else "remote") ]

let apply_event t node (ev : Event.t) ~local =
  let st = t.node_states.(node) in
  let tbl = cache_table st ev.cache in
  (match ev.op with
  | Event.Create | Event.Update -> Hashtbl.replace tbl ev.key ev.value
  | Event.Delete -> Hashtbl.remove tbl ev.key);
  t.events_applied <- t.events_applied + 1;
  trace_apply t node ev ~local;
  List.iter (fun listener -> listener ~local ev) st.listeners

let replicate t ~origin (ev : Event.t) =
  if t.standalone then ()
  else
  let n = nodes t in
  for peer = 0 to n - 1 do
    if peer <> origin && not t.node_states.(peer).partitioned then begin
      t.bytes_replicated <- t.bytes_replicated + Event.wire_size ev;
      let delay =
        match t.consistency with
        | Eventual ->
            (* Zero jitter draws nothing, so a deterministic-latency
               profile keeps the RNG stream untouched (the schedule
               explorer depends on that). *)
            if t.profile.replication_jitter_us <= 0. then
              t.profile.replication_base
            else
              Time.add t.profile.replication_base
                (Time.of_float_us
                   (Rng.exponential t.rng t.profile.replication_jitter_us))
        | Strong ->
            (* The write's coordination round completes when the global
               channel clears (strong_acquire advanced it just before
               this write): peers see the entry only then. *)
            Time.sub
              (Time.max t.strong_channel_clear (Engine.now t.engine))
              (Engine.now t.engine)
      in
      let at =
        Time.max
          (Time.add (Engine.now t.engine) delay)
          t.channel_clear.(origin).(peer)
      in
      t.channel_clear.(origin).(peer) <- Time.add at (Time.ns 1);
      let dst = t.node_states.(peer) in
      Engine.schedule_on_at t.engine dst.footprint ~at (fun () ->
          if not dst.partitioned then apply_event t peer ev ~local:false)
    end
  done

let next_event t ~node ?taint ~cache op ~key ~value () =
  t.seqs.(node) <- t.seqs.(node) + 1;
  { Event.cache;
    op;
    key;
    value;
    origin = node;
    seq = t.seqs.(node);
    taint }

let write t ~node ?taint ~cache op ~key ~value =
  check_node t node;
  let st = t.node_states.(node) in
  if Hashtbl.mem st.locked cache then Error "failed to obtain lock"
  else begin
    let ev = next_event t ~node ?taint ~cache op ~key ~value () in
    apply_event t node ev ~local:true;
    if not st.partitioned then replicate t ~origin:node ev;
    Ok ev
  end

let read t ~node ~cache ~key =
  check_node t node;
  let st = t.node_states.(node) in
  match Hashtbl.find_opt st.caches cache with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl key

let entries t ~node ~cache =
  check_node t node;
  let st = t.node_states.(node) in
  match Hashtbl.find_opt st.caches cache with
  | None -> []
  | Some tbl ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let entry_count t ~node ~cache = List.length (entries t ~node ~cache)

let subscribe t ~node listener =
  check_node t node;
  let st = t.node_states.(node) in
  st.listeners <- st.listeners @ [ listener ]

let strong_round t =
  Time.add t.profile.strong_round_base
    (Time.mul t.profile.strong_round_per_node (nodes t))

let strong_acquire t =
  (* Wait for the global coordination channel, then hold it for one
     round. Returns the total stall the writer experiences. *)
  let now = Engine.now t.engine in
  let start = Time.max now t.strong_channel_clear in
  let round = strong_round t in
  t.strong_channel_clear <- Time.add start round;
  Time.add (Time.sub start now) round

let sync_cost t =
  match t.consistency with
  | Eventual -> t.profile.local_apply
  | Strong ->
      Time.add t.profile.local_apply
        (Time.add t.profile.strong_round_base
           (Time.mul t.profile.strong_round_per_node (nodes t)))

let set_cache_locked t ~node ~cache locked =
  check_node t node;
  let st = t.node_states.(node) in
  if locked then Hashtbl.replace st.locked cache ()
  else Hashtbl.remove st.locked cache

let set_partitioned t ~node p =
  check_node t node;
  t.node_states.(node).partitioned <- p

let is_partitioned t ~node =
  check_node t node;
  t.node_states.(node).partitioned

(* State transfer, not event replay: the rejoining node's tables are
   silently overwritten with a deep copy of the source's — no events,
   no listeners, no sequence bumps — so divergence accumulated while
   crashed or partitioned vanishes without generating traffic the
   validator would have to account for. *)
let resync t ~from ~node =
  check_node t from;
  check_node t node;
  if from = node then invalid_arg "Fabric.resync: from = node";
  let src = t.node_states.(from) and dst = t.node_states.(node) in
  Hashtbl.reset dst.caches;
  Hashtbl.iter
    (fun name tbl -> Hashtbl.replace dst.caches name (Hashtbl.copy tbl))
    src.caches

let inject_divergent_write t ~node ~cache op ~key ~value =
  check_node t node;
  let ev = next_event t ~node ~cache op ~key ~value () in
  apply_event t node ev ~local:true;
  ev

let bytes_replicated t = t.bytes_replicated
let events_applied t = t.events_applied

let cache_words t =
  let caches = Array.map (fun st -> st.caches) t.node_states in
  Obj.reachable_words (Obj.repr caches) - (Array.length caches + 1)
