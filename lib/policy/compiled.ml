module Event = Jury_store.Event
module Names = Jury_store.Cache_names

type verdict = Allowed | Denied of Ast.rule

(* A rule as the trie's leaves see it: the selectors the dispatch path
   has already satisfied (cache, operation, controller) are gone; what
   remains is the residual predicate and the ordinal that decides
   precedence. [src] is the rule as the user wrote it, returned
   verbatim in [Denied] so verdicts are physically identical to the
   interpreter's. *)
type crule = {
  ord : int;
  allow : bool;
  trigger : Ast.trigger_sel;
  destination : Ast.destination_sel;
  entry : Ast.entry_check;  (* globs inside are pre-compiled segment matchers *)
  src : Ast.rule;
}

type leaf = crule array

(* Controller dispatch: concrete ids present in the rule subset, plus
   the fallthrough leaf holding only controller-wildcard rules. *)
type ctrl_node = { by_ctrl : (int, leaf) Hashtbl.t; ctrl_any : leaf }

(* Operation dispatch. Queries always carry a concrete op, so three
   branches (indexed by [op_index]) cover every lookup; each branch
   already folds in the op-wildcard rules. *)
type op_node = ctrl_node array

type stats = {
  st_rules : int;
  st_cache_branches : int;
  st_leaves : int;  (* leaf references reachable from the trie *)
  st_distinct_leaves : int;  (* after FDD-style sharing *)
  st_max_leaf : int;  (* longest residual scan any query can see *)
}

type t = {
  by_cache : (Names.t, op_node) Hashtbl.t;
  cache_any : op_node;
  stats : stats;
}

let op_index = function Event.Create -> 0 | Event.Update -> 1 | Event.Delete -> 2
let all_ops = [| Event.Create; Event.Update; Event.Delete |]

(* --- construction -------------------------------------------------- *)

(* Subsets are identified by their ordinal sequence: two branches whose
   applicable rules coincide share one physical subtree, however they
   were reached (the FDD trick — wildcard-heavy rule sets collapse to a
   handful of distinct leaves). *)
let subset_key subset =
  String.concat "." (List.map (fun (ord, _) -> string_of_int ord) subset)

let memo tbl subset build =
  let key = subset_key subset in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = build subset in
      Hashtbl.add tbl key v;
      v

let of_rules rules =
  let tagged = List.mapi (fun ord r -> (ord, r)) rules in
  let leaf_memo : (string, leaf) Hashtbl.t = Hashtbl.create 16 in
  let ctrl_memo : (string, ctrl_node) Hashtbl.t = Hashtbl.create 16 in
  let op_memo : (string, op_node) Hashtbl.t = Hashtbl.create 16 in
  let mk_leaf subset =
    memo leaf_memo subset (fun subset ->
        Array.of_list
          (List.map
             (fun (ord, (r : Ast.rule)) ->
               { ord; allow = r.Ast.allow; trigger = r.Ast.trigger;
                 destination = r.Ast.destination; entry = r.Ast.entry;
                 src = r })
             subset))
  in
  let mk_ctrl subset =
    memo ctrl_memo subset (fun subset ->
        let ids =
          List.sort_uniq compare
            (List.filter_map
               (fun (_, (r : Ast.rule)) ->
                 match r.Ast.controller with
                 | Ast.Controller_id id -> Some id
                 | Ast.Any_controller -> None)
               subset)
        in
        let by_ctrl = Hashtbl.create (max 1 (List.length ids)) in
        List.iter
          (fun id ->
            Hashtbl.add by_ctrl id
              (mk_leaf
                 (List.filter
                    (fun (_, (r : Ast.rule)) ->
                      match r.Ast.controller with
                      | Ast.Any_controller -> true
                      | Ast.Controller_id i -> i = id)
                    subset)))
          ids;
        { by_ctrl;
          ctrl_any =
            mk_leaf
              (List.filter
                 (fun (_, (r : Ast.rule)) ->
                   r.Ast.controller = Ast.Any_controller)
                 subset) })
  in
  let mk_op subset =
    memo op_memo subset (fun subset ->
        Array.map
          (fun op ->
            mk_ctrl
              (List.filter
                 (fun (_, (r : Ast.rule)) ->
                   match r.Ast.operation with
                   | Ast.Any_op -> true
                   | Ast.Op_is o -> o = op)
                 subset))
          all_ops)
  in
  let caches =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, (r : Ast.rule)) -> r.Ast.cache)
         tagged)
  in
  let by_cache = Hashtbl.create (max 1 (List.length caches)) in
  List.iter
    (fun c ->
      Hashtbl.add by_cache c
        (mk_op
           (List.filter
              (fun (_, (r : Ast.rule)) ->
                match r.Ast.cache with
                | None -> true
                | Some rc -> Names.equal rc c)
              tagged)))
    caches;
  let cache_any =
    mk_op (List.filter (fun (_, (r : Ast.rule)) -> r.Ast.cache = None) tagged)
  in
  let stats =
    let distinct = Hashtbl.length leaf_memo in
    let refs = ref 0 and max_leaf = ref 0 in
    Hashtbl.iter
      (fun _ (l : leaf) -> max_leaf := max !max_leaf (Array.length l))
      leaf_memo;
    let count_ctrl (c : ctrl_node) =
      refs := !refs + 1 + Hashtbl.length c.by_ctrl
    in
    let count_op (o : op_node) = Array.iter count_ctrl o in
    Hashtbl.iter (fun _ o -> count_op o) by_cache;
    count_op cache_any;
    { st_rules = List.length rules;
      st_cache_branches = Hashtbl.length by_cache;
      st_leaves = !refs;
      st_distinct_leaves = distinct;
      st_max_leaf = !max_leaf }
  in
  { by_cache; cache_any; stats }

let stats t = t.stats

(* --- lookup -------------------------------------------------------- *)

let residual_matches (c : crule) (q : Ast.query) =
  (match c.trigger with
  | Ast.Any_trigger -> true
  | Ast.Internal_only -> q.Ast.q_trigger = `Internal
  | Ast.External_only -> q.Ast.q_trigger = `External)
  && (match c.destination with
     | Ast.Any_dest -> true
     | Ast.Local_only -> q.Ast.q_destination = `Local
     | Ast.Remote_only -> q.Ast.q_destination = `Remote)
  && Ast.entry_matches c.entry q

let leaf_check (leaf : leaf) q =
  let n = Array.length leaf in
  let rec go i =
    if i = n then Allowed
    else
      let c = Array.unsafe_get leaf i in
      if residual_matches c q then
        if c.allow then Allowed else Denied c.src
      else go (i + 1)
  in
  go 0

let check t (q : Ast.query) =
  let opn =
    match Hashtbl.find_opt t.by_cache q.Ast.q_cache with
    | Some n -> n
    | None -> t.cache_any
  in
  let cn = opn.(op_index q.Ast.q_op) in
  let leaf =
    match Hashtbl.find_opt cn.by_ctrl q.Ast.q_controller with
    | Some l -> l
    | None -> cn.ctrl_any
  in
  leaf_check leaf q

let check_all t queries =
  List.filter_map
    (fun q -> match check t q with Allowed -> None | Denied r -> Some r)
    queries
