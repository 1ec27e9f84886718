(** One function per table/figure of the paper's evaluation (§VII).

    Every function builds its own environment(s), drives the workload,
    and returns the series the paper plots. Durations default to a few
    simulated seconds so the whole suite runs in minutes; pass
    [~duration] to reproduce the paper's full 60 s runs.

    Every multi-point sweep fans its points out on a {!Jury_par.Pool}
    (the ambient {!Jury_par.Pool.default} unless [?pool] is given): one
    task per sweep point, each task building its own engine, RNG and
    network, so a sweep's result is byte-identical whatever the worker
    count. [fig4e] (single run) and [policy_scaling] (wall-clock
    micro-measurement) stay serial by design. *)

module Cdf = Jury_stats.Cdf

type cdf_series = {
  label : string;
  cdf : Cdf.t;
  samples : int;
  p50_ms : float;
  p95_ms : float;
}

type xy_series = { series_label : string; points : (float * float) list }

type detection_row = {
  scenario_name : string;
  klass : string;
  detected : int;
  repeats : int;
  mean_ms : float;  (** mean detection time over detected runs *)
  expected : string;
}

(** {1 Accuracy (§VII-A)} *)

val detection_run_exposed :
  seed:int -> k:int -> m:int -> rate:float -> duration:Jury_sim.Time.t ->
  float array
(** One ONOS detection-time run (used by tests and profiling). *)

val fig4a :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rate:float -> unit ->
  cdf_series list
(** ONOS detection-time CDFs for (k=2,m=0), (4,0), (6,0), (6,2). *)

val detection_phase_cdfs :
  ?seed:int -> ?duration:Jury_sim.Time.t -> ?rate:float -> unit ->
  cdf_series list
(** Per-phase latency CDFs (ms) for the Fig. 4a k=6 setting, derived
    from the causal trace ({!Jury_obs.Span.phase_breakdown_ms} of each
    closed root span): one series per span phase (["span/replicate"],
    ["span/pipeline-service"], ...) plus ["span/total"] end-to-end,
    sorted by name. *)

val fig4b :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rates:float list -> unit ->
  cdf_series list
(** ONOS detection CDFs at 500 / 3000 / 5500 PACKET_IN/s, k=6, m=0. *)

val fig4c :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rate:float -> unit ->
  cdf_series list
(** ODL detection CDFs, same (k, m) grid as Fig. 4a, 500 pps. *)

val fig4d :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> unit ->
  (cdf_series * float) list
(** Benign-trace detection CDFs (LBNL/UNIV/SMIA) with k=6, m=2, and the
    per-trace false-positive rate. *)

val detection_matrix :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?repeats:int -> unit -> detection_row list
(** §VII-A1: every fault scenario injected [repeats] times (paper: 10),
    n=7, k=6, m=2. *)

(** {1 Performance (§VII-B)} *)

val fig4e :
  ?seed:int -> ?duration:Jury_sim.Time.t -> unit ->
  (float * float * float) list
(** Cbench blast vs one ONOS node: (time s, PACKET_IN/s, FLOW_MOD/s)
    per window. *)

val fig4f :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rates:float list ->
  ?nodes_list:int list -> unit -> xy_series list
(** Vanilla ONOS FLOW_MOD vs PACKET_IN rate for n = 1/3/5/7. *)

val fig4g :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rates:float list ->
  ?nodes_list:int list -> unit -> xy_series list
(** Vanilla ODL, same sweep at ODL-scale rates. *)

val fig4h :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rates:float list -> unit ->
  xy_series list
(** ONOS n=7: vanilla vs JURY k=2/4/6. *)

val fig4i :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rates:float list -> unit ->
  cdf_series list
(** ODL decapsulation-cost CDFs (µs) at 100–500 pps, n=7, k=6. *)

type profile_row = {
  pr_name : string;          (** profile name: onos / odl / ryu *)
  pr_clustered : bool;       (** false = standalone validation mode *)
  pr_rate : float;           (** PacketIns/sec the profile is driven at *)
  pr_detection : cdf_series; (** detection-time CDF, k = 6, m = 1 *)
  pr_base_fm_rate : float;   (** FLOW_MODs/sec without JURY *)
  pr_jury_fm_rate : float;   (** FLOW_MODs/sec with JURY, k = 6 *)
  pr_overhead_pct : float;   (** throughput cost of JURY, percent *)
}

val profile_comparison :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t ->
  ?names:string list -> unit -> profile_row list
(** Fig. 4-style detection and throughput for all three controller
    profiles side by side — clustered ONOS at 5.5 K pps, clustered ODL
    (encapsulated replication) at 500 pps, and the standalone Ryu-style
    profile at 800 pps, where JURY runs in standalone validation mode:
    the action stream is replicated across independent instances and
    consensus is state-blind response voting. One row per profile;
    [names] restricts the run to the named profiles (the bench uses
    this to time each profile as its own experiment). *)

type overhead_row = {
  config : string;
  store_mbps : float;      (** inter-controller store replication *)
  jury_mbps : float;       (** replicated triggers + validator traffic *)
  chatter_mbps : float;    (** secondary→primary mastership chatter *)
  jury_fraction : float;   (** jury bytes / total bytes *)
}

val overhead :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> unit -> overhead_row list
(** §VII-B2(1): byte accounting for ONOS at 5.5 K pps (k = 2/4/6) and
    ODL at 500 pps (k = 6). *)

val policy_scaling : ?iterations:int -> ?sizes:int list -> unit ->
  (int * float) list
(** §VII-B2(3): mean policy-validation time (µs) vs policy-set size. *)

val packet_out_peak : unit -> float
(** Modelled PACKET_OUT saturation rate for one ONOS node (§VII-B1
    reports ≈220 K/s vs ≈5 K/s FLOW_MODs). *)

(** {1 Lossy-channel study (DESIGN.md)} *)

type channel_row = {
  mode : string;
  c_decided : int;
  c_timeout_alarms : int;
      (** verdicts carrying a response-timeout fault *)
  c_unverifiable : int;
  c_degraded : int;
  c_retransmits : int;
  c_channel : Jury.Channel.stats;  (** summed over every link *)
  c_detection : cdf_series;
}

val lossy_channel :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rate:float -> ?drop:float ->
  unit -> channel_row list
(** Benign ONOS k=2 workload, one seed, three modes: reliable links
    ("clean"), a [drop]-probability channel without mitigation
    ("lossy"), and the same channel with bounded retransmission plus
    degraded-quorum verdicts ("lossy+retx"). The "clean" row reproduces
    the seed's verdict counts exactly; the third row should show far
    fewer spurious timeout/unverifiable verdicts than the second. *)

(** {1 Ablations (DESIGN.md)} *)

val ablation_state_aware :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> ?rate:float -> unit ->
  (string * int * int * int) list
(** (mode, decided, false alarms, unverifiable) under benign churn with
    state-aware consensus on vs off. *)

val ablation_timeout :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> unit ->
  (int * float * float) list
(** (timeout ms, false-positive rate, p95 detection ms) under benign
    traffic at θτ = 25, 50, 100, 150, 300 and 600 ms — the §VIII-1
    trade-off. *)

val ablation_secondary_selection :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?repeats:int -> unit -> (string * int * int) list
(** Random per-trigger secondaries vs a static peer set: detected count
    over repeated injections of a consensus-visible fault. *)

val ablation_adaptive_timeout :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> unit ->
  (string * int * int * float * float) list
(** Fixed vs adaptive θτ under bursty benign traffic: (mode, decided,
    false alarms, p95 detection ms, final θτ ms) — the §VIII-1
    extension. *)

val ablation_nondeterminism :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t -> unit ->
  (string * int * int * int) list
(** ECMP (non-deterministic) forwarding with the §IV-C B rule on vs
    off: (mode, decided, false alarms, verdicts labelled
    non-deterministic). *)

(** {1 Validator scaling (sharded verdict state)} *)

type scale_row = {
  vs_rate : float;           (** offered PACKET_IN rate *)
  vs_shards : int;           (** normalised shard count *)
  vs_verdicts : int;          (** verdicts decided during the window *)
  vs_batches : int;          (** per-shard batches delivered *)
  vs_batched_responses : int;
  vs_shard_batches : int list;
      (** batch count per shard, in shard order — the fan-out evidence *)
  vs_wall_s : float;         (** host CPU seconds for the whole run *)
  vs_verdicts_per_s : float; (** decided / wall — the throughput figure *)
}

val validator_scale :
  ?pool:Jury_par.Pool.t -> ?seed:int -> ?duration:Jury_sim.Time.t ->
  ?rates:float list -> ?shard_counts:int list -> ?max_inflight:int ->
  ?batch:Jury_sim.Time.t -> unit -> scale_row list
(** Trigger rate x shard count sweep over a benign ONOS k=2 workload
    with batched response ingestion ([batch], default 200 us). Verdict
    counts are identical across shard counts at a given rate (sharding
    only partitions state); wall-clock and per-shard batch counters show
    how the work fans out. One row per (rate, shard) cell, rates outer,
    shard counts inner. *)
