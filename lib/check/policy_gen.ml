module Ast = Jury_policy.Ast
module Pattern = Jury_policy.Pattern
module Engine = Jury_policy.Engine
module Compiled = Jury_policy.Compiled
module Event = Jury_store.Event
module Values = Jury_controller.Values
module Of_match = Jury_openflow.Of_match
module Of_message = Jury_openflow.Of_message
module Of_action = Jury_openflow.Of_action

(* Mixed-case spellings on purpose: rule caches and query caches draw
   from different spellings of the same stores, which must parse to the
   same names. *)
let rule_caches =
  List.map Jury_store.Cache_names.of_string
    [ "FLOWSDB"; "LinksDB"; "edgedb"; "HOSTDB"; "ArpDB" ]

let query_caches =
  List.map Jury_store.Cache_names.of_string
    [ "FLOWSDB"; "flowsdb"; "LINKSDB"; "LinksDB"; "EDGEDB"; "HostDB"; "ARPDB";
      "NOSUCHDB" ]

(* A tiny alphabet so globs and subjects collide often — near-miss
   patterns are what distinguish the matchers. *)
let glyph = Gen.choose [ "a"; "b"; "k"; "/" ]

let word ~max_len : string Gen.t =
  Gen.map (String.concat "") (Gen.list_of ~len:(Gen.int_in 0 max_len) glyph)

let pattern_source : string Gen.t =
  let token =
    Gen.frequency_gen
      [ (3, word ~max_len:2);
        (2, Gen.return "*");
        (1, Gen.return "?") ]
  in
  Gen.map (String.concat "") (Gen.list_of ~len:(Gen.int_in 0 5) token)

let subject : string Gen.t = word ~max_len:8

(* Occasional real FLOWSDB values so Flow_hierarchy_violation and
   Flow_drops_packets exercise both arms instead of always failing to
   parse. *)
let flow_value : string Gen.t =
  let mac i = Jury_packet.Addr.Mac.of_host_index i in
  let good =
    Of_message.flow_mod (Of_match.l2_dst ~dst:(mac 1)) [ Of_action.Output 2 ]
  in
  let drop = Of_message.flow_mod (Of_match.l2_dst ~dst:(mac 1)) [] in
  let bad_hier =
    Of_message.flow_mod
      { Of_match.wildcard_all with Of_match.tp_dst = Some 80 }
      [ Of_action.Output 1 ]
  in
  Gen.map Values.Flow.value (Gen.choose [ good; drop; bad_hier ])

let entry_check : Ast.entry_check Gen.t =
  Gen.frequency_gen
    [ (4, Gen.return Ast.Entry_any);
      (4,
       Gen.bind pattern_source (fun key ->
           Gen.map
             (fun value ->
               Ast.Entry_glob
                 { key = Pattern.compile key; value = Pattern.compile value })
             pattern_source));
      (1, Gen.return Ast.Flow_hierarchy_violation);
      (1, Gen.return Ast.Flow_drops_packets) ]

let rule : Ast.rule Gen.t =
 fun rng ->
  let controller =
    Gen.frequency_gen
      [ (1, Gen.return Ast.Any_controller);
        (1, Gen.map (fun id -> Ast.Controller_id id) (Gen.int_in 0 3)) ]
      rng
  in
  let trigger =
    Gen.choose [ Ast.Any_trigger; Ast.Internal_only; Ast.External_only ] rng
  in
  let cache = Gen.option 0.7 (Gen.choose rule_caches) rng in
  let operation =
    Gen.frequency_gen
      [ (2, Gen.return Ast.Any_op);
        (3,
         Gen.map
           (fun op -> Ast.Op_is op)
           (Gen.choose [ Event.Create; Event.Update; Event.Delete ])) ]
      rng
  in
  let entry = entry_check rng in
  let destination =
    Gen.choose [ Ast.Any_dest; Ast.Local_only; Ast.Remote_only ] rng
  in
  let allow = Gen.bool rng in
  Ast.rule ~allow ~controller ~trigger ?cache ~operation ~entry ~destination ()

let query : Ast.query Gen.t =
 fun rng ->
  let q_controller = Gen.int_in 0 4 rng in
  let q_trigger = Gen.choose [ `Internal; `External ] rng in
  let q_cache = Gen.choose query_caches rng in
  let q_op = Gen.choose [ Event.Create; Event.Update; Event.Delete ] rng in
  let q_key = subject rng in
  let q_value = Gen.frequency_gen [ (5, subject); (2, flow_value) ] rng in
  let q_destination = Gen.choose [ `Local; `Remote ] rng in
  { Ast.q_controller; q_trigger; q_cache; q_op; q_key; q_value; q_destination }

(* --- the equivalence check ---------------------------------------- *)

let verdicts_agree (a : Engine.verdict) (b : Compiled.verdict) =
  match (a, b) with
  | Engine.Allowed, Compiled.Allowed -> true
  | Engine.Denied r1, Compiled.Denied r2 ->
      (* Physical identity: both sides must return the very rule object
         the engine stores, not merely an equal-looking one. *)
      r1 == r2
  | _ -> false

let pp_verdict fmt = function
  | Compiled.Allowed -> Format.fprintf fmt "allowed"
  | Compiled.Denied r -> Format.fprintf fmt "denied by %a" Ast.pp_rule r

let first_disagreement engine queries =
  let compiled = Engine.compiled engine in
  List.find_map
    (fun q ->
      let a = Engine.check engine q in
      let b = Compiled.check compiled q in
      if verdicts_agree a b then None
      else
        Some
          (Format.asprintf "%a: interpreter %a, compiled %a" Ast.pp_query q
             pp_verdict a pp_verdict b))
    queries

let diff ~seed =
  Gen.run ~seed (fun rng ->
      let rs = Gen.list_of ~len:(Gen.int_in 0 24) rule rng in
      let qs = Gen.list_of ~len:(Gen.int_in 1 40) query rng in
      let engine = Engine.create rs in
      match first_disagreement engine qs with
      | Some msg -> Some msg
      | None ->
          (* Grow the rule set mid-stream: add_rule must invalidate the
             memoised compiled view, and the recompiled trie must agree
             with the interpreter on the same queries again. *)
          Engine.add_rule engine (rule rng);
          Option.map
            (fun msg -> "after add_rule: " ^ msg)
            (first_disagreement engine qs))
