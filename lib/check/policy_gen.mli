(** Fuzzed policy rule sets and queries, and the compiled-vs-
    interpreted differential check.

    The [policy] oracle family holds {!Jury_policy.Compiled} to its
    contract: verdict-for-verdict equivalence with the
    {!Jury_policy.Engine} interpreter — the semantics of record — on
    randomly drawn rule sets and queries. Everything derives from one
    integer seed through {!Gen}, so a failing comparison replays from
    the per-case seed like every other harness failure.

    Rule caches and query caches deliberately mix spellings of the
    same store names (["FLOWSDB"], ["flowsdb"], ["LinksDB"]…), which
    {!Jury_store.Cache_names.of_string} must parse alike, and
    globs/subjects draw from a tiny alphabet so near-miss patterns are
    common. *)

val pattern_source : string Gen.t
(** Glob source text over a small alphabet with [*] and [?] tokens —
    shared with the [Pattern.matches] differential test. *)

val subject : string Gen.t
(** A string to match patterns against, from the same alphabet. *)

val rule : Jury_policy.Ast.rule Gen.t
(** One random rule (selectors, globs, flow checks, allow/deny). *)

val query : Jury_policy.Ast.query Gen.t
(** One random query, cache name in a random spelling; values are
    sometimes real FLOWSDB flow encodings so the flow checks exercise
    both arms. *)

val diff : seed:int -> string option
(** Draw a rule set (up to 24 rules) and a query batch (up to 40
    queries) from [seed]; check every query under
    both {!Jury_policy.Engine.check} and {!Jury_policy.Compiled.check}
    — [Denied] verdicts must carry the {e physically} identical rule —
    then {!Jury_policy.Engine.add_rule} one more rule and re-check the
    batch against the recompiled view. [None] on agreement; [Some msg]
    describes the first disagreement. *)
