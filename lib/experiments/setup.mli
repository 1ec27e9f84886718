(** Shared experiment environments: a JURY-enhanced (or vanilla)
    cluster on a canned topology, converged and with all hosts
    announced — the state every §VII experiment starts from. *)

type env = {
  engine : Jury_sim.Engine.t;
  network : Jury_net.Network.t;
  cluster : Jury_controller.Cluster.t;
  deployment : Jury.Deployment.t option;  (** [None] = vanilla cluster *)
  rng : Jury_sim.Rng.t;
}

val build :
  ?seed:int -> ?switches:int -> ?hosts_per_switch:int ->
  ?plan:Jury_topo.Builder.plan -> ?lenient_tables:bool ->
  ?trace:Jury_obs.Trace.t ->
  profile:Jury_controller.Profile.t -> nodes:int -> unit ->
  Jury_controller.Cluster.t
(** Create the engine (seed default 42, [trace] attached before
    anything is scheduled), the data plane and the cluster. Defaults:
    the paper's Mininet workload topology (linear, 24 switches, 1 host
    each); pass [plan] for another topology. [lenient_tables] passes
    through to {!Jury_net.Network.create}. Runs no event: the engine's
    clock is still zero and it has executed nothing, so a caller may
    still attach a schedule chooser or arm faults. The engine and
    network are {!Jury_controller.Cluster.engine} and
    {!Jury_controller.Cluster.network}. *)

val boot : Jury_controller.Cluster.t -> unit
(** Converge (mastership, switch connection, LLDP discovery), announce
    every host, and settle for 1 s. *)

val make :
  ?seed:int -> ?switches:int -> ?hosts_per_switch:int ->
  ?plan:Jury_topo.Builder.plan -> ?jury:Jury.Jury_config.t ->
  ?trace:Jury_obs.Trace.t ->
  profile:Jury_controller.Profile.t -> nodes:int -> unit -> env
(** {!build}, install [jury] (from {!Jury.Jury_config.make}; omit it
    for a vanilla cluster), {!boot}, then split the workload RNG [rng]
    off the engine's. *)

val run_for : env -> Jury_sim.Time.t -> unit
(** Advance the simulation by the given span. *)

val validator : env -> Jury.Validator.t
(** Raises [Invalid_argument] on a vanilla environment. *)
