(** The policy rule set compiled into a single decision structure.

    {!Engine} interprets the rule list: every check walks the rules
    until one matches. This module compiles the same rule set once —
    borrowing the NetKAT compiler's move of turning a policy term into
    a decision structure evaluated per packet — into a dispatch trie
    over the three selectors a query always carries concretely:

    {v
      cache name  ->  operation  ->  controller id
    v}

    Each trie level dispatches on the concrete key and falls through to
    a wildcard branch; every reachable leaf is the ordinal-ordered
    array of exactly those rules whose cache/op/controller selectors
    are compatible with the path, so a check scans only the rules that
    could match. Leaf rules carry just the {e residual} predicate
    (trigger, destination, entry check) with entry globs pre-compiled
    to segment matchers ({!Pattern}); branches whose applicable rule
    subsets coincide share one physical subtree (FDD-style sharing —
    wildcard-heavy rule sets collapse to a handful of distinct leaves).

    {!check} is verdict-for-verdict equivalent to {!Engine.check} on
    the same rule list — global insertion-order first match, default
    allow, [Denied] carrying the {e physically} identical rule — an
    equivalence fuzzed continuously by the [jury_check] [policy]
    oracle family and pinned in [test_policy.ml]. Per-query cost is
    two hash lookups, an array index and a short residual scan:
    near-constant in total rule count (see the [policy-scale] bench).

    Compilation is pure: a [t] never observes later {!Engine.add_rule}
    calls. Use {!Engine.compiled} for a memoised view that recompiles
    exactly when the underlying rule set has grown. *)

type verdict = Allowed | Denied of Ast.rule
(** Same shape as {!Engine.verdict} (which re-exports this type). *)

type t

val of_rules : Ast.rule list -> t
(** Compile, treating list position as rule precedence (first rule
    wins). *)

val check : t -> Ast.query -> verdict
(** First matching rule (lowest ordinal) decides; no match allows. *)

val check_all : t -> Ast.query list -> Ast.rule list
(** Every deny verdict across a whole response's queries. *)

(** Shape of the compiled structure, for benchmarks and docs. *)
type stats = {
  st_rules : int;  (** rules compiled *)
  st_cache_branches : int;  (** concrete cache names dispatched on *)
  st_leaves : int;  (** leaf references reachable from the trie *)
  st_distinct_leaves : int;  (** physical leaves after sharing *)
  st_max_leaf : int;  (** longest residual scan any query can see *)
}

val stats : t -> stats
