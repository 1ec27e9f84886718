(* Tests for the policy framework: globs, parsers, evaluation. *)

module Pattern = Jury_policy.Pattern
module Ast = Jury_policy.Ast
module Parse = Jury_policy.Parse
module Engine = Jury_policy.Engine
module Compiled = Jury_policy.Compiled
module Event = Jury_store.Event
module Values = Jury_controller.Values
module Of_match = Jury_openflow.Of_match
module Of_message = Jury_openflow.Of_message
module Of_action = Jury_openflow.Of_action
module Names = Jury_store.Cache_names

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Patterns --- *)

let test_glob () =
  let m p s = Pattern.matches (Pattern.compile p) s in
  check_bool "exact" true (m "abc" "abc");
  check_bool "exact miss" false (m "abc" "abd");
  check_bool "star all" true (m "*" "anything");
  check_bool "star empty" true (m "*" "");
  check_bool "prefix" true (m "ab*" "abcdef");
  check_bool "suffix" true (m "*def" "abcdef");
  check_bool "middle" true (m "a*f" "abcdef");
  check_bool "two stars" true (m "a*c*e" "abcde");
  check_bool "question" true (m "a?c" "abc");
  check_bool "question miss" false (m "a?c" "abbc");
  check_bool "star backtrack" true (m "*b*c" "abxbc");
  check_bool "no match" false (m "x*" "abc");
  check_bool "is_star" true (Pattern.is_star (Pattern.compile "*"))

(* --- DSL parsing --- *)

let test_dsl_line () =
  match Parse.dsl_line "deny name=r1 ctrl=3 trigger=internal cache=EDGEDB op=update entry=*,down dest=remote" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
      check_bool "deny" false r.Ast.allow;
      Alcotest.(check string) "name" "r1" r.Ast.name;
      check_bool "ctrl" true (r.Ast.controller = Ast.Controller_id 3);
      check_bool "trigger" true (r.Ast.trigger = Ast.Internal_only);
      Alcotest.(check (option string)) "cache" (Some "EDGEDB")
        (Option.map Names.to_string r.Ast.cache);
      check_bool "op" true (r.Ast.operation = Ast.Op_is Event.Update);
      check_bool "dest" true (r.Ast.destination = Ast.Remote_only)

let test_dsl_document () =
  let src = "# comment\n\ndeny cache=LINKSDB\nallow cache=FLOWSDB\n" in
  match Parse.dsl src with
  | Ok rules -> check_int "two rules" 2 (List.length rules)
  | Error e -> Alcotest.failf "dsl failed: %s" e

let test_dsl_errors () =
  check_bool "bad verb" true (Result.is_error (Parse.dsl_line "frobnicate cache=X"));
  check_bool "bad field" true (Result.is_error (Parse.dsl_line "deny nope=1"));
  check_bool "bad op" true (Result.is_error (Parse.dsl_line "deny op=explode"))

(* --- XML parsing (the Fig. 3 syntax) --- *)

let fig3 =
  {|<Policy allow="No" name="no-proactive-edges">
      <Controller id="*"/>
      <Action type="Internal"/>
      <Cache ="EdgesDB" entry="*,*" operation="*"/>
      <Destination value="*"/>
    </Policy>|}

let test_xml_fig3 () =
  match Parse.xml fig3 with
  | Error e -> Alcotest.failf "fig3 parse failed: %s" e
  | Ok [ r ] ->
      check_bool "deny" false r.Ast.allow;
      check_bool "internal" true (r.Ast.trigger = Ast.Internal_only);
      Alcotest.(check (option string)) "cache normalised" (Some "EDGESDB")
        (Option.map Names.to_string r.Ast.cache);
      check_bool "any controller" true (r.Ast.controller = Ast.Any_controller)
  | Ok _ -> Alcotest.fail "expected exactly one rule"

(* The paper's [EdgesDB] is no cache the store holds (it holds EDGEDB):
   lint says so, and names the seven it does hold; a rule on a held
   cache, in any spelling, draws no warning. *)
let test_lint_unknown_cache () =
  match Parse.xml fig3, Parse.dsl "deny cache=edgeDb\nallow cache=*" with
  | Ok paper, Ok held -> (
      check_int "held caches draw no warning" 0
        (List.length (Parse.lint held));
      Alcotest.(check (list string)) "one warning for EdgesDB"
        [ "warning: rule no-proactive-edges names cache EDGESDB, which the \
           store does not hold (it holds ARPDB EDGEDB FLOWSDB HOSTDB LINKSDB \
           MASTERDB SWITCHDB); the rule can never match" ]
        (Parse.lint (paper @ held)))
  | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e

let test_xml_multiple_and_checks () =
  let src =
    {|<Policy allow="No" name="hier"><Cache name="FLOWSDB" check="flow-hierarchy"/></Policy>
      <Policy allow="Yes" name="ok"><Controller id="2"/></Policy>|}
  in
  match Parse.xml src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok [ a; b ] ->
      check_bool "check entry" true (a.Ast.entry = Ast.Flow_hierarchy_violation);
      check_bool "allow rule" true b.Ast.allow;
      check_bool "controller 2" true (b.Ast.controller = Ast.Controller_id 2)
  | Ok _ -> Alcotest.fail "expected two rules"

(* The two rules of test/policies/fig3.xml, as a policy file carries
   them under a comment header and with a comment between them. *)
let fig3_rules =
  [ {|<Policy allow="No" name="no-proactive-edges">
  <Controller id="*"/>
  <Action type="Internal"/>
  <Cache ="EdgesDB" entry="*,*" operation="*"/>
  <Destination value="*"/>
</Policy>|};
    {|<Policy allow="No" name="no-proactive-edge-db">
  <Controller id="*"/>
  <Action type="Internal"/>
  <Cache name="EdgeDB" entry="*,*" operation="*"/>
  <Destination value="*"/>
</Policy>|} ]

let test_xml_comments () =
  let plain = String.concat "\n" fig3_rules in
  let commented =
    "<!-- Fig. 3: no proactive\n     topology writes -->\n"
    ^ String.concat "\n  <!-- the store's spelling: EDGEDB -->\n" fig3_rules
    ^ "\n"
  in
  let show rules = List.map (Format.asprintf "%a" Ast.pp_rule) rules in
  (match (Parse.xml plain, Parse.xml commented) with
  | Ok a, Ok b ->
      check_int "both rules" 2 (List.length a);
      Alcotest.(check (list string)) "comments change nothing" (show a)
        (show b)
  | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check (result reject string)) "unterminated comment"
    (Error "unterminated comment at offset 0")
    (Result.map ignore (Parse.xml ("<!-- open\n" ^ plain)))

let test_xml_errors () =
  check_bool "mismatched close" true
    (Result.is_error (Parse.xml "<Policy><Cache name=\"X\"/></Oops>"));
  check_bool "garbage" true (Result.is_error (Parse.xml "not xml at all"))

(* --- Engine evaluation --- *)

let base_query =
  { Ast.q_controller = 1;
    q_trigger = `External;
    q_cache = Names.linksdb;
    q_op = Event.Update;
    q_key = "l1";
    q_value = "down";
    q_destination = `Local }

let test_engine_first_match () =
  let engine =
    Engine.create
      [ Ast.rule ~name:"allow-ctrl1" ~allow:true ~controller:(Ast.Controller_id 1)
          ~cache:Names.linksdb ();
        Ast.rule ~name:"deny-all" ~cache:Names.linksdb () ]
  in
  (match Engine.check engine base_query with
  | Engine.Allowed -> ()
  | Engine.Denied _ -> Alcotest.fail "allow rule should win (first match)");
  match Engine.check engine { base_query with Ast.q_controller = 2 } with
  | Engine.Denied r -> Alcotest.(check string) "deny rule" "deny-all" r.Ast.name
  | Engine.Allowed -> Alcotest.fail "controller 2 should be denied"

let test_engine_default_allow () =
  let engine = Engine.create [ Ast.rule ~cache:Names.flowsdb () ] in
  match Engine.check engine base_query with
  | Engine.Allowed -> ()
  | Engine.Denied _ -> Alcotest.fail "non-matching cache must default-allow"

let test_engine_trigger_and_dest () =
  let engine =
    Engine.create
      [ Ast.rule ~name:"internal-only" ~trigger:Ast.Internal_only
          ~cache:Names.linksdb ();
        Ast.rule ~name:"remote-only" ~destination:Ast.Remote_only
          ~cache:Names.flowsdb () ]
  in
  check_bool "external passes internal-only rule" true
    (Engine.check engine base_query = Engine.Allowed);
  check_bool "internal denied" true
    (match Engine.check engine { base_query with Ast.q_trigger = `Internal } with
    | Engine.Denied r -> r.Ast.name = "internal-only"
    | Engine.Allowed -> false);
  let flow_q = { base_query with Ast.q_cache = Names.flowsdb } in
  check_bool "local passes remote-only" true
    (Engine.check engine flow_q = Engine.Allowed);
  check_bool "remote denied" true
    (Engine.check engine { flow_q with Ast.q_destination = `Remote }
    <> Engine.Allowed)

let test_engine_flow_checks () =
  let bad_match = { Of_match.wildcard_all with Of_match.tp_dst = Some 80 } in
  let bad_flow = Of_message.flow_mod bad_match [ Of_action.Output 1 ] in
  let drop_flow =
    Of_message.flow_mod (Of_match.l2_dst ~dst:(Jury_packet.Addr.Mac.of_host_index 1)) []
  in
  let engine =
    Engine.create
      [ Ast.rule ~name:"hier" ~cache:Names.flowsdb ~entry:Ast.Flow_hierarchy_violation ();
        Ast.rule ~name:"nodrop" ~cache:Names.flowsdb ~entry:Ast.Flow_drops_packets () ]
  in
  let q value = { base_query with Ast.q_cache = Names.flowsdb; q_value = value } in
  check_bool "bad hierarchy denied" true
    (match Engine.check engine (q (Values.Flow.value bad_flow)) with
    | Engine.Denied r -> r.Ast.name = "hier"
    | Engine.Allowed -> false);
  check_bool "drop rule denied" true
    (match Engine.check engine (q (Values.Flow.value drop_flow)) with
    | Engine.Denied r -> r.Ast.name = "nodrop"
    | Engine.Allowed -> false);
  let good = Of_message.flow_mod (Of_match.l2_dst ~dst:(Jury_packet.Addr.Mac.of_host_index 1))
      [ Of_action.Output 2 ] in
  check_bool "good flow passes" true
    (Engine.check engine (q (Values.Flow.value good)) = Engine.Allowed)

let test_check_all () =
  let engine = Engine.create [ Ast.rule ~name:"d" ~cache:Names.linksdb () ] in
  let qs =
    [ base_query;
      { base_query with Ast.q_cache = Names.flowsdb };
      { base_query with Ast.q_key = "l2" } ]
  in
  check_int "two violations" 2 (List.length (Engine.check_all engine qs))

let test_add_rule_and_count () =
  let engine = Engine.create [] in
  check_int "empty" 0 (Engine.rule_count engine);
  Engine.add_rule engine (Ast.rule ());
  check_int "one" 1 (Engine.rule_count engine);
  check_bool "denies now" true (Engine.check engine base_query <> Engine.Allowed)

(* --- First-match precedence across buckets (regression) --- *)

(* The headline bug: the engine used to scan the cache-specific bucket
   to exhaustion before any cache-wildcard rule, so a wildcard deny
   inserted *before* a cache-specific allow was silently bypassed. *)
let test_wildcard_before_specific () =
  let engine =
    Engine.create
      [ Ast.rule ~name:"deny-everything" ();  (* cache wildcard, first *)
        Ast.rule ~name:"allow-links" ~allow:true ~cache:Names.linksdb () ]
  in
  (match Engine.check engine base_query with
  | Engine.Denied r ->
      Alcotest.(check string) "wildcard deny wins" "deny-everything"
        r.Ast.name
  | Engine.Allowed ->
      Alcotest.fail
        "cache-specific allow bypassed an earlier wildcard deny");
  (* And the compiler must reproduce the fixed semantics. *)
  match Compiled.check (Engine.compiled engine) base_query with
  | Compiled.Denied r ->
      Alcotest.(check string) "compiled agrees" "deny-everything" r.Ast.name
  | Compiled.Allowed -> Alcotest.fail "compiled diverged from interpreter"

let test_deny_then_allow_order () =
  (* Specific deny before wildcard allow: deny wins; swapped, allow
     wins. Pure insertion order, wherever the rules are bucketed. *)
  let deny = Ast.rule ~name:"deny-links" ~cache:Names.linksdb () in
  let allow = Ast.rule ~name:"allow-all" ~allow:true () in
  (match Engine.check (Engine.create [ deny; allow ]) base_query with
  | Engine.Denied r -> Alcotest.(check string) "deny first" "deny-links" r.Ast.name
  | Engine.Allowed -> Alcotest.fail "first-inserted deny must win");
  match Engine.check (Engine.create [ allow; deny ]) base_query with
  | Engine.Allowed -> ()
  | Engine.Denied _ -> Alcotest.fail "first-inserted allow must win"

let test_empty_bucket_falls_through () =
  (* No bucket for the queried cache: wildcard rules still decide, and
     a cache that matches nothing still default-allows. *)
  let engine =
    Engine.create [ Ast.rule ~name:"wild" ~trigger:Ast.External_only () ]
  in
  (match Engine.check engine { base_query with Ast.q_cache = Names.switchdb } with
  | Engine.Denied r -> Alcotest.(check string) "wildcard" "wild" r.Ast.name
  | Engine.Allowed -> Alcotest.fail "wildcard must apply to unbucketed cache");
  let specific = Engine.create [ Ast.rule ~cache:Names.flowsdb () ] in
  check_bool "no rule matches -> allowed" true
    (Engine.check specific { base_query with Ast.q_cache = Names.switchdb }
    = Engine.Allowed)

let test_add_rule_appends_at_lowest_precedence () =
  let engine = Engine.create [ Ast.rule ~name:"first" () ] in
  Engine.add_rule engine (Ast.rule ~name:"late-allow" ~allow:true ());
  check_int "count" 2 (Engine.rule_count engine);
  Alcotest.(check (list string)) "insertion order" [ "first"; "late-allow" ]
    (List.map (fun (r : Ast.rule) -> r.Ast.name) (Engine.rules engine));
  match Engine.check engine base_query with
  | Engine.Denied r -> Alcotest.(check string) "earlier deny wins" "first" r.Ast.name
  | Engine.Allowed -> Alcotest.fail "appended allow must not jump the queue"

(* --- Cache-name normalisation --- *)

let test_mixed_case_cache () =
  (* DSL rule, mixed-case cache; hand-built query, another casing. *)
  let engine =
    match Engine.of_dsl "deny name=no-edges cache=EdgeDB" with
    | Ok e -> e
    | Error e -> Alcotest.failf "dsl: %s" e
  in
  let q = { base_query with Ast.q_cache = Names.of_string "edgeDb" } in
  (match Engine.check engine q with
  | Engine.Denied r -> Alcotest.(check string) "one name" "no-edges" r.Ast.name
  | Engine.Allowed -> Alcotest.fail "cache casing must not defeat the rule");
  check_bool "compiled agrees" true
    (match Compiled.check (Engine.compiled engine) q with
    | Compiled.Denied _ -> true
    | Compiled.Allowed -> false);
  (* Rule built straight from the record, bypassing the smart
     constructor. *)
  let raw =
    Engine.create
      [ { Ast.name = "raw"; allow = false; controller = Ast.Any_controller;
          trigger = Ast.Any_trigger; cache = Some (Names.of_string "LinksDB");
          operation = Ast.Any_op; entry = Ast.Entry_any;
          destination = Ast.Any_dest } ]
  in
  check_bool "record-literal rule found" true
    (Engine.check raw base_query <> Engine.Allowed)

(* --- Compiled structure --- *)

let test_compiled_equivalence_and_sharing () =
  let rules =
    [ Ast.rule ~name:"d0" ~controller:(Ast.Controller_id 1) ~cache:Names.linksdb ();
      Ast.rule ~name:"a1" ~allow:true ~cache:Names.linksdb
        ~operation:(Ast.Op_is Event.Update) ();
      Ast.rule ~name:"d2" ~cache:Names.flowsdb ~entry:Ast.Flow_drops_packets ();
      Ast.rule ~name:"d3" ~trigger:Ast.Internal_only () ]
  in
  let engine = Engine.create rules in
  let compiled = Engine.compiled engine in
  check_bool "memoised" true (Engine.compiled engine == compiled);
  let queries =
    [ base_query;
      { base_query with Ast.q_controller = 2 };
      { base_query with Ast.q_cache = Names.flowsdb };
      { base_query with Ast.q_trigger = `Internal; Ast.q_cache = Names.arpdb };
      { base_query with Ast.q_op = Event.Delete } ]
  in
  List.iter
    (fun q ->
      match (Engine.check engine q, Compiled.check compiled q) with
      | Engine.Allowed, Compiled.Allowed -> ()
      | Engine.Denied r1, Compiled.Denied r2 ->
          check_bool "physically identical rule" true (r1 == r2)
      | _ -> Alcotest.failf "verdicts diverge on %s" (Names.to_string q.Ast.q_cache))
    queries;
  let st = Compiled.stats compiled in
  check_int "rules counted" 4 st.Compiled.st_rules;
  check_int "cache branches" 2 st.Compiled.st_cache_branches;
  check_bool "sharing collapses leaves" true
    (st.Compiled.st_distinct_leaves <= st.Compiled.st_leaves);
  (* add_rule invalidates the memo and the recompiled trie agrees. *)
  Engine.add_rule engine (Ast.rule ~name:"d4" ~cache:Names.arpdb ());
  let recompiled = Engine.compiled engine in
  check_bool "recompiled" true (recompiled != compiled);
  let q = { base_query with Ast.q_cache = Names.arpdb } in
  check_bool "new rule visible" true
    (Compiled.check recompiled q <> Compiled.Allowed
    && Engine.check engine q <> Engine.Allowed)

(* --- Pattern differential: segment matchers vs naive reference --- *)

(* Exponential-time but obviously correct recursive glob. *)
let rec naive_match p s pi si =
  if pi = String.length p then si = String.length s
  else
    match p.[pi] with
    | '*' ->
        naive_match p s (pi + 1) si
        || (si < String.length s && naive_match p s pi (si + 1))
    | '?' -> si < String.length s && naive_match p s (pi + 1) (si + 1)
    | c -> si < String.length s && s.[si] = c && naive_match p s (pi + 1) (si + 1)

let test_pattern_differential () =
  let module Gen = Jury_check.Gen in
  let module Pg = Jury_check.Policy_gen in
  for seed = 0 to 499 do
    let p, s =
      Gen.run ~seed (fun rng -> (Pg.pattern_source rng, Pg.subject rng))
    in
    let compiled = Pattern.matches (Pattern.compile p) s in
    let reference = naive_match p s 0 0 in
    if compiled <> reference then
      Alcotest.failf
        "pattern %S vs %S: compiled=%b reference=%b (seed %d)" p s compiled
        reference seed
  done;
  (* Hand-picked anchors and overlaps the fuzz alphabet may miss. *)
  List.iter
    (fun (p, s, expect) ->
      check_bool (Printf.sprintf "%S ~ %S" p s) expect
        (Pattern.matches (Pattern.compile p) s))
    [ ("**", "", true);
      ("a*a", "a", false);          (* anchors must not overlap *)
      ("*ab*ab*", "abab", true);    (* floating segments in order *)
      ("*ab*ab*", "aba", false);
      ("?*", "", false);
      ("a?*b", "axyb", true);
      ("*?", "x", true) ]

let prop_star_matches_everything =
  QCheck.Test.make ~name:"'*' matches any string" ~count:200
    QCheck.printable_string
    (fun s -> Pattern.matches (Pattern.compile "*") s)

let prop_exact_self_match =
  QCheck.Test.make ~name:"literal pattern matches itself" ~count:200
    QCheck.printable_string
    (fun s ->
      (* Avoid glob metacharacters in the generated string. *)
      let clean =
        String.map (fun c -> if c = '*' || c = '?' then 'x' else c) s
      in
      Pattern.matches (Pattern.compile clean) clean)

let suite =
  [ ("glob patterns", `Quick, test_glob);
    ("dsl line", `Quick, test_dsl_line);
    ("dsl document", `Quick, test_dsl_document);
    ("dsl errors", `Quick, test_dsl_errors);
    ("xml fig3 policy", `Quick, test_xml_fig3);
    ("lint unknown cache", `Quick, test_lint_unknown_cache);
    ("xml multiple + checks", `Quick, test_xml_multiple_and_checks);
    ("xml comments", `Quick, test_xml_comments);
    ("xml errors", `Quick, test_xml_errors);
    ("engine first match", `Quick, test_engine_first_match);
    ("engine default allow", `Quick, test_engine_default_allow);
    ("engine trigger/destination", `Quick, test_engine_trigger_and_dest);
    ("engine flow checks", `Quick, test_engine_flow_checks);
    ("check_all", `Quick, test_check_all);
    ("add_rule", `Quick, test_add_rule_and_count);
    ("wildcard before specific (regression)", `Quick,
     test_wildcard_before_specific);
    ("deny-then-allow order", `Quick, test_deny_then_allow_order);
    ("empty bucket falls through", `Quick, test_empty_bucket_falls_through);
    ("add_rule precedence", `Quick, test_add_rule_appends_at_lowest_precedence);
    ("mixed-case cache names", `Quick, test_mixed_case_cache);
    ("compiled equivalence + sharing", `Quick,
     test_compiled_equivalence_and_sharing);
    ("pattern differential vs naive", `Quick, test_pattern_differential);
    QCheck_alcotest.to_alcotest prop_star_matches_everything;
    QCheck_alcotest.to_alcotest prop_exact_self_match ]
