open Jury_sim
module Builder = Jury_topo.Builder
module Network = Jury_net.Network
module Host = Jury_net.Host
module Cluster = Jury_controller.Cluster

type env = {
  engine : Engine.t;
  network : Network.t;
  cluster : Cluster.t;
  deployment : Jury.Deployment.t option;
  rng : Rng.t;
}

let build ?(seed = 42) ?(switches = 24) ?(hosts_per_switch = 1) ?plan
    ?lenient_tables ?trace ~profile ~nodes () =
  let engine = Engine.create ~seed () in
  Option.iter (Engine.set_trace engine) trace;
  let plan =
    match plan with
    | Some p -> p
    | None -> Builder.linear ~switches ~hosts_per_switch
  in
  let network = Network.create engine plan ?lenient_tables () in
  Cluster.create engine ~profile ~nodes ~network

let boot cluster =
  let engine = Cluster.engine cluster in
  Cluster.converge cluster;
  List.iter Host.join (Network.hosts (Cluster.network cluster));
  Engine.run engine ~until:(Time.add (Engine.now engine) (Time.sec 1))

let make ?seed ?switches ?hosts_per_switch ?plan ?jury ?trace ~profile ~nodes
    () =
  let cluster =
    build ?seed ?switches ?hosts_per_switch ?plan ?trace ~profile ~nodes ()
  in
  let deployment = Option.map (Jury.Jury_config.install cluster) jury in
  boot cluster;
  let engine = Cluster.engine cluster in
  { engine;
    network = Cluster.network cluster;
    cluster;
    deployment;
    rng = Rng.split (Engine.rng engine) }

let run_for env span =
  Engine.run env.engine ~until:(Time.add (Engine.now env.engine) span)

let validator env =
  match env.deployment with
  | Some d -> Jury.Deployment.validator d
  | None -> invalid_arg "Setup.validator: vanilla environment"
