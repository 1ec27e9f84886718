let arpdb = "ARPDB"
let hostdb = "HOSTDB"
let edgedb = "EDGEDB"
let linksdb = "LINKSDB"
let flowsdb = "FLOWSDB"
let switchdb = "SWITCHDB"
let masterdb = "MASTERDB"
let all = [ arpdb; hostdb; edgedb; linksdb; flowsdb; switchdb; masterdb ]
(* Allocation-free when the name is already normalised — the validator
   and the compiled policy trie normalise every query's cache key on
   the per-response path. *)
let rec has_lower s i =
  i < String.length s && ((s.[i] >= 'a' && s.[i] <= 'z') || has_lower s (i + 1))

let normalize s = if has_lower s 0 then String.uppercase_ascii s else s
let is_known name = List.mem (normalize name) all
