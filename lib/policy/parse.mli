(** Parsers for administrator-authored policies.

    Two concrete syntaxes are supported:

    - the paper's XML-ish form (Fig. 3):
      {v
      <Policy allow="No" name="no-proactive-topology">
        <Controller id="*"/>
        <Action type="Internal"/>
        <Cache name="EdgesDB" entry="*,*" operation="*"/>
        <Destination value="*"/>
      </Policy>
      v}
      (the paper writes [<Cache ="EdgesDB" ...>]; both [name=] and the
      bare [=] form are accepted, as is [<Action type=.../>] for the
      trigger selector). A [<!-- ... -->] comment may stand wherever
      whitespace may stand between elements;

    - a compact one-rule-per-line DSL:
      {v deny ctrl=* trigger=internal cache=EDGEDB op=* entry=*,* dest=* v}
      with optional [name=...], [check=flow-hierarchy] /
      [check=flow-drop] instead of [entry=...]. Lines starting with '#'
      are comments. *)

val xml : string -> (Ast.rule list, string) result
(** Parse a document containing zero or more [<Policy>] elements. *)

val dsl : string -> (Ast.rule list, string) result
val dsl_line : string -> (Ast.rule, string) result

val lint : Ast.rule list -> string list
(** One warning per rule whose cache is none of the store's
    ({!Jury_store.Cache_names.Other}): such a rule can never match. Each
    warning lists the names the store holds. The paper's own [EdgesDB]
    is one — the store's cache is [EDGEDB]. *)
