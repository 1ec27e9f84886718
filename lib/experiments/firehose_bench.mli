(** The serial firehose reference run: a bare validator fed a
    {!Jury_workload.Firehose} stream, with the verdict counts it ends
    on.

    The benchmark's [firehose] workload replays the same stream from a
    pre-drawn table and checks its counts against {!run_point} (its
    parity check); the staged pipeline is measured there, and only
    there ([stage.speedup_jobs2]). *)

type row = {
  fh_triggers : int;   (** arrivals registered *)
  fh_responses : int;  (** responses ingested (98% response rate) *)
  fh_decided : int;
  fh_faults : int;
}

val run_point :
  ?seed:int -> ?nodes:int -> ?k:int ->
  profile:Jury_workload.Firehose.profile ->
  duration:Jury_sim.Time.t -> jobs:int -> shards:int -> unit -> row
(** Build a bare validator from the configuration the deployment would
    use (200 µs batch window, 50 ms timeout, [shards]), attach the
    {!Jury.Stage} pipeline when [jobs > 1], replay [duration] of
    simulated stream time and flush. [nodes] (default 5) and [k]
    (default 2) shape the responder set. The counts do not depend on
    [jobs] or [shards]; the benchmark's parity check passes [~jobs:1
    ~shards:1]. *)
