(** Policy evaluation — the reference interpreter.

    The validator checks each validated response's actions against the
    policy set (one of the matching replica responses — §V notes one
    check per policy suffices once consensus holds). Evaluation is
    {e global insertion-order first match}: the first rule of
    {!rules} that matches the query decides, wherever its cache
    selector put it internally, and an unmatched query is allowed.

    This module is the semantics of record: the hot path uses the
    {!Compiled} decision structure (via {!compiled}), which is held
    verdict-for-verdict equivalent to {!check} by the [jury_check]
    [policy] oracle. *)

type t

val create : Ast.rule list -> t
(** Rules in precedence order (first rule wins). Policy load is linear
    in the rule count. *)

val rules : t -> Ast.rule list
(** In insertion (= precedence) order. *)

val rule_count : t -> int
(** O(1). *)

val add_rule : t -> Ast.rule -> unit
(** Append at lowest precedence (after every existing rule). O(1);
    invalidates the {!compiled} view. *)

val generation : t -> int
(** Monotone counter bumped by {!add_rule}; equal generations imply an
    unchanged rule set. *)

val compiled : t -> Compiled.t
(** The rule set compiled to a dispatch trie, memoised per
    {!generation}: the first call after construction or {!add_rule}
    compiles, later calls return the cached structure. Callers sharing
    an engine across domains should force this once before fanning out
    (as {!Jury.Jury_config.make} does). *)

type verdict = Compiled.verdict = Allowed | Denied of Ast.rule

val check : t -> Ast.query -> verdict
(** First matching rule in insertion order decides; no match allows. *)

val check_all : t -> Ast.query list -> Ast.rule list
(** Every deny verdict across a whole response's queries. *)

val of_dsl : string -> (t, string) result
