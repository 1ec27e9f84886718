(** Coverage-guided stateful fuzzing — the budget loop behind
    [jury_cli check --fuzz].

    The loop seeds a {!Corpus} with blind generator cases, then spends
    the remaining execution budget mutating corpus entries with
    {!Mutate} moves: each mutant runs once (with a {!Jury_obs.Trace}
    attached), its {!Coverage} features are extracted, the configured
    oracle battery is checked against the same outcome, and the mutant
    enters the corpus iff it exhibited a feature no earlier run did.

    Everything is deterministic in [(seed, budget)]: the same
    invocation reproduces the same corpus (ids, lineages and feature
    maps) run after run, and any single entry replays bit-identically
    from its printed lineage via {!Corpus.replay}. Because the mutation
    move set — not the blind generator — owns the stateful fault
    vocabulary (crash-rejoin, Byzantine, partition, policy churn),
    guided runs reach behaviours blind runs cannot, which is the whole
    point: the corpus's feature count strictly dominates an equal
    budget of blind cases. *)

type failure = {
  lineage : string;  (** replayable provenance of the failing mutant *)
  case : Case.t;
  violations : (Oracle.t * string) list;
  shrink : Shrink.outcome option;  (** [None] when [max_shrink = 0] *)
}

type summary = {
  executed : int;      (** primary executions spent (≤ budget) *)
  seed_cases : int;    (** blind cases used to seed the corpus *)
  corpus : Corpus.t;
  blind_features : int;
      (** corpus feature count right after seeding — the blind
          baseline the guided phase grows from. With [~seed_cases:budget]
          the whole budget is blind, which makes this the comparison
          arm for guided-vs-blind coverage claims. *)
  failures : failure list;
}

val default_oracles : unit -> Oracle.t list
(** The cheap per-run families ([conservation], [channel]) —
    one execution plus a replay per case, no cross-run sweeps. *)

val repro : failure -> string
(** Standalone report: lineage, replay command, violated oracles and
    the (shrunk) case as a [test/repros] corpus entry. *)

val run :
  ?log:(string -> unit) ->
  ?oracles:Oracle.t list ->
  ?seed_cases:int ->
  ?max_shrink:int ->
  budget:int -> seed:int -> unit -> summary
(** Fuzz with [budget] primary executions from [seed]. [seed_cases]
    (default three quarters of the budget, capped at it) blind cases
    seed the corpus, so guided coverage starts from blind mode's own
    diversity;
    [oracles] defaults to {!default_oracles}; [max_shrink] (default 0,
    i.e. off) bounds shrink executions per failure. [log] receives
    progress lines, admissions and failure reports. *)
