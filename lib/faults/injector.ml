module Types = Jury_controller.Types
module Cluster = Jury_controller.Cluster
module Controller = Jury_controller.Controller
module Names = Jury_store.Cache_names
module Of_message = Jury_openflow.Of_message

let drop_cache_writes_to ~cache _trigger actions =
  let cache = Names.normalize cache in
  List.filter
    (fun (a : Types.action) ->
      match a with
      | Types.Cache_write { cache = c; _ } -> c <> cache
      | Types.Network_send _ -> true)
    actions

let corrupt_cache_values_to ~cache ~value _trigger actions =
  let cache = Names.normalize cache in
  List.map
    (fun (a : Types.action) ->
      match a with
      | Types.Cache_write cw when cw.cache = cache ->
          Types.Cache_write { cw with value }
      | _ -> a)
    actions

let drop_network_sends _trigger actions =
  List.filter
    (fun (a : Types.action) ->
      match a with Types.Network_send _ -> false | Types.Cache_write _ -> true)
    actions

let blackhole_flow_mods _trigger actions =
  List.map
    (fun (a : Types.action) ->
      match a with
      | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ->
          Types.Network_send
            { dpid; payload = Of_message.Flow_mod { fm with actions = [] } }
      | _ -> a)
    actions

(* Byzantine response fault: plausible-but-wrong, not absent. Cache
   writes keep their shape but carry corrupted values (so the peer acks
   arrive with the wrong content digest), and FLOW_MODs are re-pointed
   at a perturbed output port (a rule that installs, but forwards
   wrongly). Deterministic — no RNG — so replicated execution at the
   faulty node reproduces the same wrong answer every time. *)
let byzantine_actions _trigger actions =
  List.map
    (fun (a : Types.action) ->
      match a with
      | Types.Cache_write cw ->
          Types.Cache_write { cw with value = cw.value ^ "#byz" }
      | Types.Network_send { dpid; payload = Of_message.Flow_mod fm } ->
          let actions =
            List.map
              (fun (act : Jury_openflow.Of_action.t) ->
                match act with
                | Jury_openflow.Of_action.Output port
                  when Jury_openflow.Of_types.Port.is_physical port ->
                    Jury_openflow.Of_action.Output (port + 1)
                | other -> other)
              fm.actions
          in
          Types.Network_send
            { dpid; payload = Of_message.Flow_mod { fm with actions } }
      | _ -> a)
    actions

let probabilistic rng p inner trigger actions =
  if Jury_sim.Rng.bernoulli rng p then inner trigger actions else actions

let compose mutators trigger actions =
  List.fold_left (fun actions m -> m trigger actions) actions mutators

let make_slow cluster ~node ~delay =
  Controller.set_response_delay (Cluster.controller cluster node) delay

let make_lossy cluster ~node ~omit_probability =
  Controller.set_omit_probability (Cluster.controller cluster node)
    omit_probability

let crash cluster ~node =
  let ctrl = Cluster.controller cluster node in
  Controller.set_omit_probability ctrl 1.0;
  Controller.set_mutator ctrl (Some (fun _ _ -> []))

let make_byzantine cluster ~node =
  Controller.set_mutator (Cluster.controller cluster node)
    (Some byzantine_actions)

let partition cluster ~node =
  Jury_store.Fabric.set_partitioned (Cluster.fabric cluster) ~node true

let lock_cache cluster ~node ~cache =
  Jury_store.Fabric.set_cache_locked (Cluster.fabric cluster) ~node ~cache true

let heal cluster ~node =
  let ctrl = Cluster.controller cluster node in
  Controller.set_mutator ctrl None;
  Controller.set_response_delay ctrl Jury_sim.Time.zero;
  Controller.set_omit_probability ctrl 0.;
  Jury_store.Fabric.set_partitioned (Cluster.fabric cluster) ~node false;
  List.iter
    (fun cache ->
      Jury_store.Fabric.set_cache_locked (Cluster.fabric cluster) ~node ~cache
        false)
    Names.all

(* Full crash-and-rejoin: remove every lever, then hand the node back to
   the deployment for the state transfer + aliveness bookkeeping. The
   heal must come first so the node can actually serve once resynced. *)
let rejoin deployment ~node =
  heal (Jury.Deployment.cluster deployment) ~node;
  Jury.Deployment.rejoin_node deployment ~node
