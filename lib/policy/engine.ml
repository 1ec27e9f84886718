(* Rules are tagged with their insertion ordinal so first-match is
   global insertion order even though storage is bucketed by cache
   name. All three stores keep newest-first lists: add_rule is a cons
   (policy load is O(n), not the historical O(n^2) rebuild) and [rules]
   pays one reversal when asked. *)
type t = {
  mutable rev_ordered : (int * Ast.rule) list;  (* newest first *)
  mutable count : int;
  by_cache : (Jury_store.Cache_names.t, (int * Ast.rule) list ref) Hashtbl.t;
      (* newest first *)
  any_cache : (int * Ast.rule) list ref;  (* newest first *)
  mutable memo : (int * Compiled.t) option;
      (* compiled view stamped with the generation it was built at *)
}

let add_rule t rule =
  let ord = t.count in
  t.count <- ord + 1;
  t.rev_ordered <- (ord, rule) :: t.rev_ordered;
  t.memo <- None;
  match rule.Ast.cache with
  | None -> t.any_cache := (ord, rule) :: !(t.any_cache)
  | Some cache -> (
      match Hashtbl.find_opt t.by_cache cache with
      | Some bucket -> bucket := (ord, rule) :: !bucket
      | None -> Hashtbl.add t.by_cache cache (ref [ (ord, rule) ]))

let create rules =
  let t =
    { rev_ordered = []; count = 0; by_cache = Hashtbl.create 8;
      any_cache = ref []; memo = None }
  in
  List.iter (add_rule t) rules;
  t

let rules t = List.rev_map snd t.rev_ordered
let rule_count t = t.count
let generation t = t.count

let compiled t =
  match t.memo with
  | Some (gen, c) when gen = t.count -> c
  | _ ->
      let c = Compiled.of_rules (rules t) in
      t.memo <- Some (t.count, c);
      c

type verdict = Compiled.verdict = Allowed | Denied of Ast.rule

let check t (q : Ast.query) =
  let bucket =
    match Hashtbl.find_opt t.by_cache q.Ast.q_cache with
    | Some b -> !b
    | None -> []
  in
  (* The first matching rule in global insertion order decides: scan
     both the cache-specific bucket and the cache-wildcard rules and
     keep the lowest-ordinal match. *)
  let best acc lst =
    List.fold_left
      (fun acc ((ord, rule) as slot) ->
        match acc with
        | Some (o, _) when o <= ord -> acc
        | _ -> if Ast.rule_matches_sans_cache rule q then Some slot else acc)
      acc lst
  in
  match best (best None bucket) !(t.any_cache) with
  | Some (_, rule) -> if rule.Ast.allow then Allowed else Denied rule
  | None -> Allowed

let check_all t queries =
  List.filter_map
    (fun q -> match check t q with Allowed -> None | Denied r -> Some r)
    queries

let of_dsl src = Result.map create (Parse.dsl src)
